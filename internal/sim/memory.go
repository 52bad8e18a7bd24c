package sim

// cache is a tag-only set-associative LRU cache. The simulator tracks which
// lines would be resident, not their contents (the functional data comes
// from the in-memory graph).
type cache struct {
	sets      int
	ways      int
	lineShift uint     // log2 of the line size (Config.validate: a power of two)
	tags      []uint64 // sets×ways, 0 = invalid (tag stored +1)
	hits      int64
	misses    int64
}

func newCache(bytes, ways, lineBytes int) *cache {
	lines := bytes / lineBytes
	if lines < ways {
		ways = lines
	}
	if ways < 1 {
		ways = 1
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &cache{sets: sets, ways: ways, lineShift: shift, tags: make([]uint64, sets*ways)}
}

// access probes (and fills) the line containing addr, maintaining LRU order
// within the set (most recent first). It reports a hit.
func (c *cache) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line % uint64(c.sets))
	tag := line + 1
	base := set * c.ways
	ways := c.tags[base : base+c.ways]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i]) // move to MRU
			ways[0] = tag
			c.hits++
			return true
		}
	}
	copy(ways[1:], ways[:c.ways-1]) // evict LRU
	ways[0] = tag
	c.misses++
	return false
}

// resource models a pipelined shared unit (L2 bank, DRAM channel) with a
// next-free-cycle cursor. The discrete-event coordinator delivers requests
// in global simulated-time order (each PE blocks at every shared-memory
// event and the minimum-time event runs next), so the cursor is an exact
// FCFS queueing model.
type resource struct {
	nextFree int64
	busy     int64 // total occupied cycles, for utilization stats
}

// reserve books svc cycles at or after t and returns the grant time.
func (r *resource) reserve(t, svc int64) int64 {
	start := t
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + svc
	r.busy += svc
	return start
}

// memSystem is the shared memory side: NoC + banked L2 + DRAM channels.
// PEs call read with their local clock; the return value is the cycle at
// which the last requested line arrives.
type memSystem struct {
	cfg      Config
	l2       *cache
	l2Banks  []resource
	dram     []resource
	nocReqs  int64 // PE→L2 requests (the paper's "NoC traffic", Fig 16)
	dramReqs int64
	l2Hits   int64
	l2Misses int64
}

func newMemSystem(cfg Config) *memSystem {
	return &memSystem{
		cfg:     cfg,
		l2:      newCache(cfg.SharedCacheBytes, cfg.SharedWays, cfg.LineBytes),
		l2Banks: make([]resource, cfg.SharedBanks),
		dram:    make([]resource, cfg.DRAMChannels),
	}
}

// line fetches one line (by address) for a request issued at time t,
// returning the completion time and whether the line missed the L2 and was
// served by a DRAM channel (the stall-attribution signal for Breakdown).
func (m *memSystem) line(addr uint64, t int64) (done int64, fromDRAM bool) {
	m.nocReqs++
	arrive := t + int64(m.cfg.NoCLatency)
	line := addr >> m.l2.lineShift
	bank := int(line % uint64(len(m.l2Banks)))
	grant := m.l2Banks[bank].reserve(arrive, int64(m.cfg.L2ServiceCycles))
	done = grant + int64(m.cfg.L2Latency)
	if m.l2.access(addr) {
		m.l2Hits++
	} else {
		m.l2Misses++
		m.dramReqs++
		fromDRAM = true
		ch := int((line >> 3) % uint64(len(m.dram)))
		dgrant := m.dram[ch].reserve(done, int64(m.cfg.DRAMServiceCycles))
		done = dgrant + int64(m.cfg.DRAMLatency)
	}
	return done + int64(m.cfg.NoCLatency), fromDRAM
}

// busyCycles returns the occupied cycles of each reservation cursor (the
// DRAM channels, the L2 banks).
func busyCycles(rs []resource) []int64 {
	out := make([]int64, len(rs))
	for i := range rs {
		out[i] = rs[i].busy
	}
	return out
}

// Address map: the simulator lays the CSR arrays out in a flat physical
// space — Row (8 B entries), then Col (4 B entries) — and gives each PE a
// private scratch region for frontier lists.
type addressMap struct {
	rowBase uint64
	colBase uint64
}

func newAddressMap(numVertices int) addressMap {
	rowBytes := uint64(numVertices+1) * 8
	// Align the edge array to a fresh 4 kB page.
	colBase := (rowBytes + 4095) &^ 4095
	return addressMap{rowBase: 0, colBase: colBase}
}

func (a addressMap) rowAddr(v uint32) uint64 { return a.rowBase + uint64(v)*8 }

func (a addressMap) colAddr(idx int64) uint64 { return a.colBase + uint64(idx)*4 }

// frontierAddr places PE-local frontier regions far above the graph, one
// 1 MB region per (PE, level); they never alias graph lines.
func frontierAddr(pe, level int, elem int) uint64 {
	return 1<<40 | uint64(pe)<<28 | uint64(level)<<20 | uint64(elem)*4
}
