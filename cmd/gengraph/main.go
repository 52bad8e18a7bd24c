// Command gengraph generates synthetic graphs (or converts between formats)
// for use with the flexminer CLI and the experiment harness.
//
// Usage:
//
//	gengraph -kind chunglu -n 100000 -m 1000000 -beta 2.3 -seed 7 -o graph.bin
//	gengraph -kind rmat -scale 18 -m 4000000 -o rmat.txt
//	gengraph -convert in.txt -o out.bin
//	gengraph -kind rmat -scale 18 -m 4000000 -shards 8 -o shards/
//	gengraph -convert in.txt -orient -o dag.bin
//	gengraph shard -in graph.bin -shards 8 -o shards/
//
// With -shards N the output is a sharded store directory (N per-shard CSR
// files plus manifest.json) that flexminer memory-maps shard by shard; the
// shard subcommand re-partitions an existing graph file the same way.
// -orient converts the graph to its degree-oriented DAG before writing (the
// orientation optimization of §V-C) so clique apps can mine mapped files
// without an in-heap copy. Each generator reads its own size flags (rmat:
// -scale and -m, never -n); one it does not read is an error, not ignored.
// Every size must be positive, an rmat -scale at most 31 and a bipartite -n
// at least 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/graph"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := runShard(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "gengraph shard:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

// sizeFlags lists, per generator, the size flags it reads. Any other one on the
// command line would be silently ignored — `-kind rmat -n 4096` built the
// default 2^14 vertices — so run rejects it, naming the ones that count.
var sizeFlags = map[string][]string{
	"er":        {"n", "m"},
	"chunglu":   {"n", "m", "beta"},
	"rmat":      {"scale", "m"},
	"ring":      {"n", "k"},
	"clique":    {"n"},
	"bipartite": {"n", "m"},
	"grid":      {"k"},
}

func run(args []string) error {
	fs := flag.NewFlagSet("gengraph", flag.ExitOnError)
	var (
		kind    = fs.String("kind", "chunglu", "generator: er, chunglu, rmat, ring, clique, bipartite, grid")
		n       = fs.Int("n", 10000, "vertex count (er, chunglu, ring, clique, bipartite)")
		m       = fs.Int("m", 100000, "edge samples (er, chunglu, rmat, bipartite)")
		beta    = fs.Float64("beta", 2.3, "power-law exponent (chunglu)")
		scale   = fs.Int("scale", 14, "log2 vertex count (rmat)")
		k       = fs.Int("k", 4, "ring neighbor span / grid side")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		convert = fs.String("convert", "", "convert an existing graph file instead of generating")
		orient  = fs.Bool("orient", false, "write the degree-oriented DAG instead of the symmetric graph")
		shards  = fs.Int("shards", 0, "write a sharded store directory with this many shards (-o names the directory)")
		out     = fs.String("o", "", "output path (.bin = binary CSR, else text edge list; a directory with -shards)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o output path is required")
	}
	reads, known := sizeFlags[*kind] // an unknown generator is reported below
	if *convert != "" {
		reads, known = nil, true
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains([]string{"n", "m", "beta", "scale", "k"}, f.Name) && known && !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 && *convert != "" {
		return fmt.Errorf("%s: not read with -convert, the input file fixes the graph", strings.Join(unread, ", "))
	}
	if len(unread) > 0 {
		return fmt.Errorf("%s: not read by -kind %s, whose size flags are -%s", strings.Join(unread, ", "), *kind, strings.Join(reads, ", -"))
	}
	for _, name := range reads {
		if f := fs.Lookup(name); name != "beta" && f.Value.(flag.Getter).Get().(int) < 1 {
			return fmt.Errorf("-%s %s: must be positive", name, f.Value)
		}
	}
	switch {
	case *kind == "rmat" && *scale > 31:
		return fmt.Errorf("-scale %d: must be at most 31 (2^31 vertices)", *scale)
	case *kind == "bipartite" && *n < 2:
		return fmt.Errorf("-n %d: a bipartite graph needs a vertex on each side", *n)
	}
	var g *graph.Graph
	var err error
	if *convert != "" {
		g, err = graph.Load(*convert)
		if err != nil {
			return err
		}
	} else {
		switch *kind {
		case "er":
			g = graph.ErdosRenyi(*n, *m, *seed)
		case "chunglu":
			g = graph.ChungLu(*n, *m, *beta, *seed)
		case "rmat":
			g = graph.RMAT(*scale, *m, 0.57, 0.19, 0.19, *seed)
		case "ring":
			g = graph.Ring(*n, *k)
		case "clique":
			g = graph.Clique(*n)
		case "bipartite":
			g = graph.Bipartite(*n/2, *n-*n/2, *m, *seed)
		case "grid":
			g = graph.Grid(*k, *k)
		default:
			return fmt.Errorf("unknown generator %q", *kind)
		}
	}
	return write(g, *orient, *shards, *out)
}

// runShard implements `gengraph shard`: re-partition an existing graph file
// into a sharded store directory.
func runShard(args []string) error {
	fs := flag.NewFlagSet("gengraph shard", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: gengraph shard -in FILE -shards N -o DIR")
		fs.PrintDefaults()
	}
	in := fs.String("in", "", "input graph file (edge list, or .bin CSR)")
	shards := fs.Int("shards", 4, "shard count")
	orient := fs.Bool("orient", false, "shard the degree-oriented DAG instead of the symmetric graph")
	out := fs.String("o", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -o are required")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	g, err := graph.Load(*in)
	if err != nil {
		return err
	}
	return write(g, *orient, *shards, *out)
}

// write applies orientation, prints the stats line, and routes the graph to
// the requested on-disk form: sharded directory, binary CSR, or edge list.
func write(g *graph.Graph, orient bool, shards int, out string) error {
	if orient {
		g = g.Orient()
	}
	fmt.Println(graph.ComputeStats(out, g))
	if shards > 0 {
		return graph.WriteSharded(out, g, shards)
	}
	if strings.HasSuffix(out, ".bin") {
		return graph.SaveBinary(out, g)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	err = graph.WriteEdgeList(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
