package sim

// Golden-file lockdown of the simulator time-series artifact, mirroring the
// trace goldens: the coordinator drives the sampler in global event order,
// so an identical simulation records an identical series every run and the
// flexminer-timeseries/v1 export is byte-comparable. Regenerate with:
//
//	go test ./internal/sim -run TimeseriesGolden -update
//
// and review the diff like any other golden change.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func runSampled(t *testing.T, window int64) (*obs.Sampler, Result) {
	t.Helper()
	g, pl, cfg := tracedWorkload(t)
	sp := obs.NewSampler(window)
	cfg.Sample = sp
	res, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sp, res
}

func TestSimTimeseriesGolden(t *testing.T) {
	const window = 1 << 8
	sp, res := runSampled(t, window)
	samples := sp.Samples()
	if len(samples) < 2 {
		t.Fatalf("only %d samples; shrink the window", len(samples))
	}
	// The series is monotone in time and every cumulative counter is
	// non-decreasing across samples.
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatalf("sample %d at t=%d not after t=%d", i, samples[i].T, samples[i-1].T)
		}
		for k, v := range samples[i-1].Values {
			if k == "pes_active" {
				continue // occupancy falls as PEs retire
			}
			if samples[i].Values[k] < v {
				t.Errorf("series %q decreased: %d -> %d at t=%d", k, v, samples[i].Values[k], samples[i].T)
			}
		}
	}
	// The terminal flush lands exactly on the makespan with the final
	// totals, so the last sample agrees with Stats.
	last := samples[len(samples)-1]
	if last.T != res.Stats.Cycles {
		t.Errorf("last sample at t=%d, makespan %d", last.T, res.Stats.Cycles)
	}
	if got := last.Values["noc_requests"]; got != res.Stats.NoCRequests {
		t.Errorf("final noc_requests=%d, Stats=%d", got, res.Stats.NoCRequests)
	}
	if got := last.Values["pe_busy_cycles"]; got != res.Stats.BusyCycles {
		t.Errorf("final pe_busy_cycles=%d, Stats=%d", got, res.Stats.BusyCycles)
	}
	if got := last.Values["tasks_dispatched"]; got != res.Stats.Tasks {
		t.Errorf("final tasks_dispatched=%d, Stats.Tasks=%d", got, res.Stats.Tasks)
	}
	var dramBusy int64
	for ch := range res.Stats.DRAMChannelBusy {
		dramBusy += last.Values[fmt.Sprintf("dram_busy_cycles.%d", ch)]
	}
	if dramBusy != res.Stats.DRAMBusyCycles {
		t.Errorf("final per-channel dram busy sums to %d, Stats=%d", dramBusy, res.Stats.DRAMBusyCycles)
	}

	var out bytes.Buffer
	if err := sp.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	// Same workload, fresh simulator: the exported bytes must be identical.
	sp2, _ := runSampled(t, window)
	var out2 bytes.Buffer
	if err := sp2.WriteJSON(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("two identical simulations exported different timeseries bytes")
	}
	checkGolden(t, filepath.Join("testdata", "golden", "diamond_er60.timeseries.json"), out.Bytes())
}
