package cxl

import (
	"math/rand"
	"testing"

	"halsim/internal/coherence"
	"halsim/internal/nf"
	_ "halsim/internal/nf/countfn"
	_ "halsim/internal/nf/emafn"
	_ "halsim/internal/nf/kvsfn"
)

// TestStatePathAllocationFree pins the per-packet state-access path of a
// cooperative stateful run at zero allocations: a function appends its
// state lines into a warm scratch buffer, then the fabric charges them on
// a directory that already covers every line. Both sides alternate, so
// the charges include invalidations, not just local hits.
func TestStatePathAllocationFree(t *testing.T) {
	fab := NewFabric(CXL, 2)
	var lines []uint64
	for _, id := range []nf.ID{nf.Count, nf.EMA, nf.KVS} {
		fn, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		sf := fn.(nf.StateFunction)
		rng := rand.New(rand.NewSource(1))
		reqs := make([][]byte, 16)
		for i := range reqs {
			reqs[i] = gen.Next(rng)
			lines = sf.AppendStateLines(lines[:0], reqs[i])
			fab.AccessOverlapped(coherence.NodeID(i&1), lines, true)
		}
		i := 0
		appendLines := func() {
			lines = sf.AppendStateLines(lines[:0], reqs[i%len(reqs)])
			i++
		}
		if avg := testing.AllocsPerRun(200, appendLines); avg != 0 {
			t.Errorf("%v: AppendStateLines allocates %v per call, want 0", id, avg)
		}
		access := func() {
			lines = sf.AppendStateLines(lines[:0], reqs[i%len(reqs)])
			fab.AccessOverlapped(coherence.NodeID(i&1), lines, true)
			i++
		}
		if avg := testing.AllocsPerRun(200, access); avg != 0 {
			t.Errorf("%v: AccessOverlapped allocates %v per call, want 0", id, avg)
		}
	}
	if fab.Directory().TotalStats().Invalidations == 0 {
		t.Fatal("alternating sides should have invalidated lines")
	}
}
