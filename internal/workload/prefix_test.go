package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"rispp/internal/isa"
)

// TestH264PrefixStable is the property extend-only delta resumes rest on
// for the paper's workload: the H.264 generator draws its per-frame motion
// in frame order, so the F1-frame trace is exactly the first 3·F1 phases of
// the F2-frame trace (F1 < F2) for every seed, motion variability,
// scene-change frame and geometry — and its compiled form is one
// Compiled.Extends accepts.
func TestH264PrefixStable(t *testing.T) {
	is := isa.H264()
	r := rand.New(rand.NewSource(1))
	geoms := [][2]int{QCIF, {3, 2}, {5, 7}}
	for draw := 0; draw < 40; draw++ {
		cfg := H264Config{
			Seed:              r.Int63(),
			MotionVariability: []float64{0, 0.3, 1}[r.Intn(3)],
			SceneChangeFrame:  r.Intn(6),
		}.WithGeometry(geoms[r.Intn(len(geoms))])
		f1 := 1 + r.Intn(5)
		f2 := f1 + 1 + r.Intn(5)
		short, long := cfg, cfg
		short.Frames, long.Frames = f1, f2
		trS, trL := H264(short), H264(long)
		if len(trS.Phases) != 3*f1 || len(trL.Phases) != 3*f2 {
			t.Fatalf("draw %d: %d/%d phases for %d/%d frames", draw, len(trS.Phases), len(trL.Phases), f1, f2)
		}
		if !reflect.DeepEqual(trS.Phases, trL.Phases[:3*f1]) {
			t.Fatalf("draw %d (%+v, %d → %d frames): the shorter trace is not a prefix", draw, cfg, f1, f2)
		}
		ctS, err := Compile(trS, is)
		if err != nil {
			t.Fatal(err)
		}
		ctL, err := Compile(trL, is)
		if err != nil {
			t.Fatal(err)
		}
		if !ctL.Extends(ctS) {
			t.Fatalf("draw %d: Extends rejected a verified prefix", draw)
		}
		if ctS.Extends(ctL) {
			t.Fatalf("draw %d: a shorter trace claims to extend a longer one", draw)
		}
	}
}

// TestExtendsRefusals pins each reason Extends says no, and that answers
// are memoized per pair without changing.
func TestExtendsRefusals(t *testing.T) {
	is := isa.H264()
	compile := func(tr *Trace) *Compiled {
		t.Helper()
		ct, err := Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	h := func(frames int, seed int64) *Compiled {
		return compile(H264(H264Config{Frames: frames, Seed: seed, MotionVariability: 1, WidthMB: 3, HeightMB: 2}))
	}
	one, two := h(1, 0), h(2, 0)

	if !two.Extends(one) || !two.Extends(one) {
		t.Error("2-frame trace does not extend its 1-frame prefix")
	}
	if one.Extends(one) {
		t.Error("a trace extends itself: same length must stay pointer identity")
	}
	if h(1, 0).Extends(one) {
		t.Error("a content-identical same-length trace counts as an extension")
	}
	if one.Extends(two) {
		t.Error("truncation accepted")
	}
	if two.Extends(nil) {
		t.Error("nil prefix accepted")
	}
	other := h(2, 7)
	if reflect.DeepEqual(other.Trace.Phases[:3], one.Trace.Phases) {
		t.Fatal("seeds 0 and 7 draw the same first frame; pick another seed")
	}
	if other.Extends(one) {
		t.Error("a different seed's trace accepted as an extension")
	}

	// Same phases, but a hot spot first appears after the prefix: forecast
	// seeds would differ, so the pair is refused.
	b := NewBuilder("grow").Phase(isa.HotSpotME, 10).Burst(isa.SISAD, 5, 1)
	short := compile(b.Build())
	b.Phase(isa.HotSpotME, 10).Burst(isa.SISAD, 5, 1)
	sameSpots := compile(b.Build())
	b.Phase(isa.HotSpotLF, 10).Burst(isa.SILFBS4, 3, 1)
	newSpot := compile(b.Build())
	if !sameSpots.Extends(short) {
		t.Error("extension over already-seen hot spots refused")
	}
	if newSpot.Extends(short) {
		t.Error("extension introducing a new hot spot accepted")
	}
	if newSpot.Extends(sameSpots) {
		t.Error("extension introducing a new hot spot accepted over a longer prefix")
	}

	// A differing burst anywhere inside the prefix is refused.
	tr := H264(H264Config{Frames: 2, WidthMB: 3, HeightMB: 2})
	tr.Phases[1].Bursts[2].Count++
	if compile(tr).Extends(compile(H264(H264Config{Frames: 1, WidthMB: 3, HeightMB: 2}))) {
		t.Error("extension with a modified prefix burst accepted")
	}
}
