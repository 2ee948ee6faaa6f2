// Varying constraints at run time (paper Section 1: the schedule "has to
// reflect these changing situations" — varying workloads, constraints):
// a thermal event halves the fabric budget mid-encode, the Run-Time
// Manager's Molecule selection shrinks to fit, and when the constraint
// lifts, the system ramps back up. No re-synthesis, no reboot — the
// dynamic instruction set adapts.
//
//	go run ./examples/constraints
package main

import (
	"context"
	"fmt"
	"log"

	"rispp"
	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// throttler drops the container budget during frames 5–9 (hot-spot entries
// 13–27 of the ME/EE/LF rotation) and restores it afterwards.
type throttler struct {
	*core.Manager
	entries int
}

func (t *throttler) EnterHotSpot(h isa.HotSpotID, now int64) {
	t.entries++
	switch t.entries {
	case 13: // start of frame 5
		fmt.Println(">>> thermal alarm: fabric budget drops from 16 to 5 Atom Containers")
		t.SetBudget(5)
	case 28: // start of frame 10
		fmt.Println(">>> cooled down: full fabric restored")
		t.SetBudget(16)
	}
	t.Manager.EnterHotSpot(h, now)
}

func main() {
	ct, rt, err := rispp.Build(rispp.Config{
		Workload:      workload.H264(workload.H264Config{Frames: 14}),
		Scheduler:     "HEF",
		NumACs:        16,
		SeedForecasts: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := new(sim.Result)
	if err := sim.RunCompiled(context.Background(), ct, &throttler{Manager: rt.(*core.Manager)}, sim.Options{}, res); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntotal: %.1fM cycles\n\nper-frame encode time:\n", float64(res.TotalCycles)/1e6)
	frame, frameCycles := 1, int64(0)
	for i, p := range res.Phases {
		frameCycles += p.Cycles()
		if (i+1)%3 == 0 {
			note := ""
			switch frame {
			case 5:
				note = "   <- throttled to 5 ACs"
			case 10:
				note = "   <- full fabric again"
			}
			fmt.Printf("  frame %2d: %6.2fM cycles%s\n", frame, float64(frameCycles)/1e6, note)
			frame, frameCycles = frame+1, 0
		}
	}
}
