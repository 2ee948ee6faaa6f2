// End-to-end tests of the adaptive-search subsystem over the real
// simulator: internal/search driving the oracle-checked exploration
// engine, exactly as `risppexplore -search` wires them.
package rispp

import (
	"bytes"
	"context"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/hwmodel"
	"rispp/internal/search"
)

func searchSpec() explore.Spec {
	return explore.Spec{
		Schedulers: []string{"software", "Molen", "HEF", "ASF"},
		ACs:        []int{4, 6, 8, 10, 12, 14},
		Frames:     []int{3},
	}
}

// TestSearchOverSimulator runs every strategy against the real simulator
// through the oracle-checked engine and verifies the determinism contract:
// the journal, streamed records and front are byte-identical across runs,
// whether points run one-by-one or through the grouped RunSet path.
func TestSearchOverSimulator(t *testing.T) {
	spec := searchSpec()
	for _, strat := range search.StrategyNames() {
		t.Run(strat, func(t *testing.T) {
			run := func(grouped bool, workers int) (*search.Outcome, []byte, []byte) {
				t.Helper()
				eng := CheckedExplorer(Config{}, workers, nil)
				if !grouped {
					eng.RunSet = nil
				}
				var journal, stream bytes.Buffer
				out, err := search.Run(context.Background(), eng, spec, search.Config{
					Strategy: strat, Seed: 9, Budget: 10, BatchSize: 4,
					Journal: &journal, Stream: &stream,
				})
				if err != nil {
					t.Fatal(err)
				}
				return out, journal.Bytes(), stream.Bytes()
			}
			out, journal, stream := run(true, 4)
			if out.Evaluated == 0 || out.Evaluated > 10 {
				t.Fatalf("evaluated %d points, want 1..10", out.Evaluated)
			}
			if out.Failed != 0 {
				t.Fatalf("%d points failed under the oracle-checked engine", out.Failed)
			}
			if len(out.Front) == 0 {
				t.Fatal("empty front")
			}
			for _, fp := range out.Front {
				if want := hwmodel.PointArea(fp.Point.Scheduler, fp.Point.NumACs); fp.Area != want {
					t.Errorf("front point %s area %d, want hwmodel's %d", fp.Point.Key(), fp.Area, want)
				}
			}
			for _, variant := range []struct {
				name    string
				grouped bool
				workers int
			}{{"ungrouped", false, 1}, {"grouped-parallel", true, 8}} {
				_, j, s := run(variant.grouped, variant.workers)
				if !bytes.Equal(j, journal) {
					t.Errorf("%s: journal differs", variant.name)
				}
				if !bytes.Equal(s, stream) {
					t.Errorf("%s: stream differs", variant.name)
				}
			}
			rep, err := search.Replay(bytes.NewReader(journal))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if search.FormatFront(rep.Front) != search.FormatFront(out.Front) {
				t.Error("replayed front differs from the run's front")
			}
		})
	}
}

// TestCheckedExplorerMatchesExplorer pins that the oracle-checked engine
// produces the same metrics as the plain one — the checker observes, it
// must never perturb.
func TestCheckedExplorerMatchesExplorer(t *testing.T) {
	spec := searchSpec()
	ctx := context.Background()
	plain, err := Explorer(Config{}, 2, nil).Execute(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := CheckedExplorer(Config{}, 2, nil).Execute(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checked.FirstErr(); err != nil {
		t.Fatalf("oracle rejected a point of the paper grid: %v", err)
	}
	if len(plain.Records) != len(checked.Records) {
		t.Fatalf("%d checked records for %d plain ones", len(checked.Records), len(plain.Records))
	}
	for i, rec := range plain.Records {
		c := checked.Records[i]
		if c.Point != rec.Point || c.TotalCycles != rec.TotalCycles || c.Area != rec.Area {
			t.Errorf("record %d differs: checked %+v, plain %+v", i, c, rec)
		}
	}
}
