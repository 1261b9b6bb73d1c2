// Package nfconformance runs every registered network function through a
// shared compliance suite: generators must produce requests the function
// accepts, processing must be deterministic given identical state, and the
// registry metadata must be consistent. This is the cross-cutting
// integration check the per-function unit tests cannot express.
package nfconformance

import (
	"bytes"
	"math/rand"
	"testing"

	"halsim/internal/nf"

	_ "halsim/internal/nf/bayesfn"
	_ "halsim/internal/nf/bm25fn"
	_ "halsim/internal/nf/compressfn"
	_ "halsim/internal/nf/countfn"
	_ "halsim/internal/nf/cryptofn"
	_ "halsim/internal/nf/emafn"
	_ "halsim/internal/nf/knnfn"
	_ "halsim/internal/nf/kvsfn"
	_ "halsim/internal/nf/natfn"
	_ "halsim/internal/nf/remfn"
)

func TestEveryFunctionRegistered(t *testing.T) {
	reg := nf.Registered()
	if len(reg) != len(nf.All) {
		t.Fatalf("registered %d of %d functions", len(reg), len(nf.All))
	}
	for i, id := range nf.All {
		if reg[i] != id {
			t.Fatalf("registry order %v != All %v", reg, nf.All)
		}
	}
}

// iterations per function; crypto and compression are the slow ones.
func iterationsFor(id nf.ID) int {
	switch id {
	case nf.Crypto:
		return 30
	case nf.Comp:
		return 20
	default:
		return 500
	}
}

func TestGeneratorsProduceAcceptedRequests(t *testing.T) {
	for _, id := range nf.All {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			fn, gen, err := nf.New(id, "")
			if err != nil {
				t.Fatal(err)
			}
			if fn.ID() != id {
				t.Fatalf("function reports ID %v", fn.ID())
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < iterationsFor(id); i++ {
				req := gen.Next(rng)
				if len(req) == 0 {
					t.Fatalf("iteration %d: empty request", i)
				}
				resp, err := fn.Process(req)
				if err != nil {
					t.Fatalf("iteration %d: %v (req %d bytes)", i, err, len(req))
				}
				_ = resp
			}
		})
	}
}

func TestStatefulFunctionsExposeStateLines(t *testing.T) {
	for _, id := range nf.All {
		fn, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		sf, hasState := fn.(nf.StateFunction)
		if id.Stateful() && id != nf.Comp && !hasState {
			// Comp's state is the stream, not shared lines; the other
			// stateful functions must expose their line footprint.
			t.Errorf("%v is stateful but does not implement StateFunction", id)
		}
		if !hasState {
			continue
		}
		// AppendStateLines must keep dst's prefix, append the same lines
		// for the same request, and append nothing for a malformed one.
		prefix := []uint64{7, 9}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			req := gen.Next(rng)
			a := sf.AppendStateLines(append([]uint64(nil), prefix...), req)
			b := sf.AppendStateLines(nil, req)
			if len(a) != len(prefix)+len(b) || a[0] != prefix[0] || a[1] != prefix[1] {
				t.Fatalf("%v: dst prefix not kept: %v then %v", id, a, b)
			}
			if len(b) == 0 {
				t.Errorf("%v: request with no state lines", id)
			}
			for j := range b {
				if a[len(prefix)+j] != b[j] {
					t.Errorf("%v: AppendStateLines not deterministic", id)
				}
			}
		}
		if id == nf.KVS {
			if got := sf.AppendStateLines(prefix, []byte{1}); len(got) != len(prefix) {
				t.Errorf("%v: malformed request appended %v", id, got[len(prefix):])
			}
		}
	}
}

func TestFreshInstancesIndependent(t *testing.T) {
	// Two instances of the same function must not share state.
	for _, id := range []nf.ID{nf.KVS, nf.Count, nf.EMA, nf.NAT} {
		fnA, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		fnB, _, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		// Drive A hard, then check a fresh request produces the same
		// first response on B as a brand-new third instance.
		var reqs [][]byte
		for i := 0; i < 200; i++ {
			req := gen.Next(rng)
			reqs = append(reqs, req)
			if _, err := fnA.Process(req); err != nil {
				t.Fatal(err)
			}
		}
		fnC, _, _ := nf.New(id, "")
		respB, errB := fnB.Process(reqs[0])
		respC, errC := fnC.Process(reqs[0])
		if (errB == nil) != (errC == nil) || !bytes.Equal(respB, respC) {
			t.Errorf("%v: fresh instances disagree (state leaked through the factory)", id)
		}
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, id := range nf.All {
		_, genA, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		_, genB, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		ra := rand.New(rand.NewSource(4))
		rb := rand.New(rand.NewSource(4))
		for i := 0; i < 20; i++ {
			if !bytes.Equal(genA.Next(ra), genB.Next(rb)) {
				t.Errorf("%v: generators not deterministic per seed", id)
				break
			}
		}
	}
}

func TestProcessDoesNotMutateRequest(t *testing.T) {
	for _, id := range nf.All {
		fn, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 10; i++ {
			req := gen.Next(rng)
			orig := append([]byte(nil), req...)
			if _, err := fn.Process(req); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(req, orig) {
				t.Errorf("%v: Process mutated the request buffer", id)
				break
			}
		}
	}
}
