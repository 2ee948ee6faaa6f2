package workload

import (
	"slices"
	"strings"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
)

// TestCompileH264 checks the lowering of the paper's benchmark trace:
// phase structure preserved, every compiled phase reading the source bursts
// in place, and the per-SI latency tables resolved from the ISA.
func TestCompileH264(t *testing.T) {
	is := isa.H264()
	tr := H264(H264Config{Frames: 1})
	ct, err := Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Trace != tr {
		t.Errorf("Compiled.Trace = %p, want the source trace %p", ct.Trace, tr)
	}
	if ct.NumSIs != len(is.SIs) {
		t.Errorf("NumSIs = %d, want %d", ct.NumSIs, len(is.SIs))
	}
	if len(ct.SWLatency) != len(is.SIs) || len(ct.FastestLatency) != len(is.SIs) {
		t.Fatalf("latency tables have %d/%d entries, want %d", len(ct.SWLatency), len(ct.FastestLatency), len(is.SIs))
	}
	for i := range is.SIs {
		si := &is.SIs[i]
		if ct.SWLatency[i] != si.SWLatency || ct.FastestLatency[i] != si.Fastest().Latency {
			t.Errorf("SI %s: latencies %d/%d, want %d/%d", si.Name,
				ct.SWLatency[i], ct.FastestLatency[i], si.SWLatency, si.Fastest().Latency)
		}
	}
	if len(ct.Phases) != len(tr.Phases) {
		t.Fatalf("compiled %d phases, want %d", len(ct.Phases), len(tr.Phases))
	}
	for i := range ct.Phases {
		cp, p := &ct.Phases[i], &tr.Phases[i]
		if cp.HotSpot != p.HotSpot || cp.Setup != p.Setup {
			t.Errorf("phase %d: hot spot/setup %d/%d, want %d/%d",
				i, cp.HotSpot, cp.Setup, p.HotSpot, p.Setup)
		}
		if len(p.Bursts) == 0 || len(cp.Bursts) != len(p.Bursts) || &cp.Bursts[0] != &p.Bursts[0] {
			t.Fatalf("phase %d: compiled bursts are not the source's %d bursts read in place", i, len(p.Bursts))
		}
		if cap(cp.Bursts) != len(cp.Bursts) {
			t.Errorf("phase %d: capacity %d exceeds length %d; an append could write into the source",
				i, cap(cp.Bursts), len(cp.Bursts))
		}
	}
}

// TestCompileAllocs pins the cost of compiling the 20-frame H.264 trace
// (71,280 bursts): the bursts are read in place and the block summaries
// are carved from one allocation, so compiling allocates per hot spot and
// per trace, and its bytes grow per block of BlockLen bursts, never per
// burst.
func TestCompileAllocs(t *testing.T) {
	is := isa.H264()
	tr := H264(H264Config{Frames: 20})
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(tr, is); err != nil {
				b.Fatal(err)
			}
		}
	})
	if bytes, allocs := r.AllocedBytesPerOp(), r.AllocsPerOp(); bytes >= 64<<10 || allocs > 13 {
		t.Errorf("compiling a 20-frame H.264 trace: %d B in %d allocs, want < 64 KiB in ≤ 13", bytes, allocs)
	}
}

// TestCompileBlockSummaries checks every block summary against its bursts:
// one summary per full block of BlockLen bursts (glue cycles, then the
// executions of each hot-spot SI in Spot order), none for a tail or a
// short phase, and no capacity past a phase's own summaries.
func TestCompileBlockSummaries(t *testing.T) {
	is := isa.H264()
	tr := H264(H264Config{Frames: 2, MotionVariability: 0.3, Seed: 5})
	short := NewBuilder("short").Phase(isa.HotSpotME, 0).Burst(isa.SISAD, 3, 1).Build()
	tr.Phases = append(tr.Phases, short.Phases...)
	ct, err := Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for i := range ct.Phases {
		p := &ct.Phases[i]
		stride := 1 + len(p.Spot)
		n := len(p.Bursts) / BlockLen
		if len(p.Blocks) != n*stride || cap(p.Blocks) != len(p.Blocks) {
			t.Fatalf("phase %d (%d bursts): %d summary values, capacity %d; want %d",
				i, len(p.Bursts), len(p.Blocks), cap(p.Blocks), n*stride)
		}
		if n == 0 && p.Blocks != nil {
			t.Errorf("phase %d (%d bursts): summaries %v, want nil", i, len(p.Bursts), p.Blocks)
		}
		for k := 0; k < n; k++ {
			want := make([]int64, stride)
			for _, b := range p.Bursts[k*BlockLen : (k+1)*BlockLen] {
				want[0] += int64(b.Count) * int64(b.Gap)
				want[1+slices.Index(p.Spot, b.SI)] += int64(b.Count)
			}
			if got := p.Blocks[k*stride : (k+1)*stride]; !slices.Equal(got, want) {
				t.Errorf("phase %d block %d: summary %v, want %v", i, k, got, want)
			}
			blocks++
		}
	}
	if want := 2 * (792/BlockLen + 2376/BlockLen + 396/BlockLen); blocks != want {
		t.Errorf("%d blocks summarized, want %d", blocks, want)
	}
}

// TestCompileSharesSpotSlices verifies that phases of the same hot spot
// share one Spot slice instead of allocating one per phase.
func TestCompileSharesSpotSlices(t *testing.T) {
	is := isa.H264()
	tr := H264(H264Config{Frames: 2})
	ct, err := Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[isa.HotSpotID][]isa.SIID)
	for i := range ct.Phases {
		p := &ct.Phases[i]
		if len(p.Spot) == 0 {
			t.Fatalf("phase %d: empty Spot", i)
		}
		if prev, ok := first[p.HotSpot]; ok {
			if &prev[0] != &p.Spot[0] {
				t.Errorf("phase %d: hot spot %d Spot slice not shared", i, p.HotSpot)
			}
		} else {
			first[p.HotSpot] = p.Spot
		}
	}
}

// TestCompileValidates checks that Compile rejects traces that fail
// Trace.Validate instead of lowering garbage.
func TestCompileValidates(t *testing.T) {
	is := isa.H264()
	bad := &Trace{Name: "bad", Phases: []Phase{
		{HotSpot: 0, Bursts: []Burst{{SI: isa.SIID(len(is.SIs)), Count: 1}}},
	}}
	if _, err := Compile(bad, is); err == nil {
		t.Error("Compile accepted a trace referencing an unknown SI")
	}
}

// tinyISA builds a minimal two-SI ISA that corrupt can then damage; the
// shapes mirror internal/oracle's validation tests so Compile and the
// oracle reject the same malformed inputs.
func tinyISA(corrupt func(*isa.ISA)) *isa.ISA {
	is := &isa.ISA{
		Name: "tiny",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A", BitstreamBytes: 4_000, Slices: 1, LUTs: 1, FFs: 1},
			{ID: 1, Name: "B", BitstreamBytes: 4_000, Slices: 1, LUTs: 1, FFs: 1},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "S0", HotSpot: 0, SWLatency: 50,
				Molecules: []isa.Molecule{{SI: 0, Atoms: molecule.Of(1, 0), Latency: 5}}},
			{ID: 1, Name: "S1", HotSpot: 0, SWLatency: 50,
				Molecules: []isa.Molecule{{SI: 1, Atoms: molecule.Of(0, 1), Latency: 5}}},
		},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "H0", SIs: []isa.SIID{0, 1}}},
	}
	if corrupt != nil {
		corrupt(is)
	}
	return is
}

// TestCompileEdgeCases drives Compile through degenerate-but-valid traces
// and malformed ISAs: valid inputs lower cleanly, malformed ones come back
// as errors — never as panics out of the pre-resolution of SI metadata.
func TestCompileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		is      *isa.ISA
		tr      *Trace
		wantErr string // empty: must compile
	}{
		{"empty trace", tinyISA(nil), &Trace{Name: "empty"}, ""},
		{"single-burst hot spot", tinyISA(nil), &Trace{Name: "one", Phases: []Phase{
			{HotSpot: 0, Setup: 7, Bursts: []Burst{{SI: 0, Count: 3, Gap: 2}}},
		}}, ""},
		{"SI with no hardware Molecule", tinyISA(func(is *isa.ISA) { is.SIs[1].Molecules = nil }),
			&Trace{Phases: []Phase{{HotSpot: 0, Bursts: []Burst{{SI: 0, Count: 1}}}}},
			"no hardware Molecule"},
		{"duplicate SI ids", tinyISA(func(is *isa.ISA) { is.SIs[1].ID = 0 }),
			&Trace{Phases: []Phase{{HotSpot: 0, Bursts: []Burst{{SI: 0, Count: 1}}}}},
			"misnumbered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ct, err := Compile(c.tr, c.is)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Compile failed: %v", err)
				}
				if len(ct.Phases) != len(c.tr.Phases) {
					t.Fatalf("compiled %d phases, want %d", len(ct.Phases), len(c.tr.Phases))
				}
				var total int64
				for _, p := range ct.Phases {
					for _, b := range p.Bursts {
						total += int64(b.Count)
					}
				}
				if want := c.tr.TotalExecutions(); total != want {
					t.Fatalf("compiled executions = %d, want %d", total, want)
				}
				return
			}
			if err == nil {
				t.Fatalf("Compile accepted the input, want error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
