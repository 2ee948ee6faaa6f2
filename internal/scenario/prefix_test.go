package scenario

import (
	"reflect"
	"testing"

	"rispp/internal/workload"
)

// prefixDraws are the (seed, F1, F2) draws of TestScenarioPrefixTable, in
// the order of the pinned strings below.
var prefixDraws = []struct {
	seed   int64
	f1, f2 int
}{
	{0, 2, 4}, {0, 3, 6}, {1, 2, 4}, {1, 3, 6},
	{2, 2, 4}, {2, 3, 6}, {3, 2, 4}, {3, 3, 6},
}

// pinnedExtends records, per shipped scenario and draw, whether the
// compiled Trace(F2) extends Trace(F1) ('y') or is refused ('n') by
// workload.Compiled.Extends — the check delta-resimulation applies before
// resuming a longer trace from a shorter trace's trail. Every shipped
// expansion is phase-prefix-stable; the refusals are the seeding rule: a
// hot spot that first appears after the prefix would change the forecast
// seeds (early-exit-me skipping every Encoding Engine phase of the first
// iterations, video-crypto-audio's random walk reaching the crypto stack
// only after the prefix). The table is published in ARCHITECTURE.md
// ("Delta-resimulation checkpoints").
var pinnedExtends = map[string]string{
	"branchy-modes":      "yyyyyyyy",
	"early-exit-me":      "yyyynnyy",
	"scene-cut":          "yyyyyyyy",
	"sdr-crypto":         "yyyyyyyy",
	"video-crypto":       "yyyyyyyy",
	"video-crypto-audio": "nnyyynnn",
	"video-pip":          "yyyyyyyy",
}

// TestScenarioPrefixTable pins, for every shipped scenario, that a shorter
// expansion is phase for phase the start of a longer one (same seed), and
// which draws the extension check accepts.
func TestScenarioPrefixTable(t *testing.T) {
	if len(pinnedExtends) != len(Names()) {
		t.Errorf("table pins %d scenarios, library has %d — pin every shipped scenario", len(pinnedExtends), len(Names()))
	}
	for _, name := range Names() {
		sc, _ := Find(name)
		got := make([]byte, len(prefixDraws))
		for i, d := range prefixDraws {
			short, long := sc.Trace(d.f1, d.seed), sc.Trace(d.f2, d.seed)
			if len(short.Phases) > len(long.Phases) || !reflect.DeepEqual(short.Phases, long.Phases[:len(short.Phases)]) {
				t.Errorf("%s seed %d: Trace(%d) is not a phase prefix of Trace(%d)", name, d.seed, d.f1, d.f2)
			}
			ctS, err := workload.Compile(short, sc.ISA())
			if err != nil {
				t.Fatal(err)
			}
			ctL, err := workload.Compile(long, sc.ISA())
			if err != nil {
				t.Fatal(err)
			}
			got[i] = 'n'
			if ctL.Extends(ctS) {
				got[i] = 'y'
			}
		}
		if want := pinnedExtends[name]; string(got) != want {
			t.Errorf("%s: extension table %s, pinned %s", name, got, want)
		}
	}
}
