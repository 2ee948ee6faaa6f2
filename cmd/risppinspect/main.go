// Command risppinspect dumps the internals of the RISPP library: the SI /
// Molecule library of the H.264 ISA, the Atom schedules each scheduler
// produces for a given scenario, and the hardware cost model.
//
// Usage:
//
//	risppinspect -what isa
//	risppinspect -what schedule -hotspot ME -acs 10
//	risppinspect -what hw
package main

import (
	"flag"
	"fmt"
	"os"

	"rispp/internal/hwmodel"
	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/rtl"
	"rispp/internal/sched"
	"rispp/internal/selection"
	"rispp/internal/stats"
	"rispp/internal/workload"
)

func main() {
	var (
		what    = flag.String("what", "isa", "isa, schedule, hw or rtl")
		hotspot = flag.String("hotspot", "ME", "hot spot for -what schedule: ME, EE or LF")
		acs     = flag.Int("acs", 10, "Atom Containers for -what schedule")
	)
	flag.Parse()

	is := isa.H264()
	switch *what {
	case "isa":
		dumpISA(is)
	case "schedule":
		dumpSchedules(is, *hotspot, *acs)
	case "hw":
		fmt.Print(hwmodel.Table3(is))
		fmt.Printf("\nHEF FSM states: %d\n", hwmodel.HEFScheduler().FSMStates)
		fmt.Printf("device utilization (xc2v3000): %.2f%%\n", 100*hwmodel.DeviceUtilization(hwmodel.HEFScheduler()))
		div := hwmodel.HEFWithDivider().Resources()
		hef := hwmodel.HEFScheduler().Resources()
		fmt.Printf("\ndivision ablation: with divider %d slices / %d cycles per benefit,\n",
			div.Slices, hwmodel.DividerCyclesPerOp)
		fmt.Printf("division-free %d slices / 1 cycle per benefit comparison\n", hef.Slices)
	case "rtl":
		dumpRTL()
	default:
		fmt.Fprintf(os.Stderr, "risppinspect: unknown -what %q\n", *what)
		os.Exit(2)
	}
}

func dumpRTL() {
	for _, blk := range []struct {
		name  string
		build func() (*rtl.Circuit, error)
		mod   string
	}{
		{"SAD16 Atom data path", rtl.SAD16Atom, "sad16_atom"},
		{"Hadamard butterfly (Transform Atom)", rtl.Hadamard4Atom, "hadamard4_atom"},
		{"6-tap point filter (MC chain)", rtl.PointFilterAtom, "pointfilter_atom"},
		{"SATD 4x4 data path", rtl.SATD4x4Atoms, "satd4x4"},
		{"HEF benefit comparator", rtl.BenefitComparator, "hef_benefit_cmp"},
	} {
		c, err := blk.build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "risppinspect:", err)
			os.Exit(1)
		}
		r := c.Resources()
		fmt.Printf("=== %s ===\n", blk.name)
		fmt.Printf("netlist: %s\n", c.Stats())
		fmt.Printf("resources: %d LUTs, %d FFs, %d MULT18X18, depth %d\n\n", r.LUTs, r.FFs, r.Mults, r.Depth)
		fmt.Println(c.Verilog(blk.mod))
	}
}

func dumpISA(is *isa.ISA) {
	fmt.Printf("ISA: %s — %d Atom types, %d SIs\n\n", is.Name, len(is.Atoms), len(is.SIs))
	tb := &stats.Table{Header: []string{"Atom", "bitstream [B]", "slices", "LUTs", "FFs"}}
	for _, a := range is.Atoms {
		tb.AddRow(a.Name, fmt.Sprint(a.BitstreamBytes), fmt.Sprint(a.Slices), fmt.Sprint(a.LUTs), fmt.Sprint(a.FFs))
	}
	fmt.Print(tb.String())
	for i := range is.SIs {
		si := &is.SIs[i]
		fmt.Printf("\nSI %q (hot spot %d, software latency %d):\n", si.Name, si.HotSpot, si.SWLatency)
		for _, m := range si.Molecules {
			fmt.Printf("  %v  latency %d  (|m| = %d Atoms)\n", m.Atoms, m.Latency, m.Determinant())
		}
	}
}

func dumpSchedules(is *isa.ISA, hotspot string, acs int) {
	var h isa.HotSpotID
	switch hotspot {
	case "ME":
		h = isa.HotSpotME
	case "EE":
		h = isa.HotSpotEE
	case "LF":
		h = isa.HotSpotLF
	default:
		fmt.Fprintf(os.Stderr, "risppinspect: unknown hot spot %q\n", hotspot)
		os.Exit(2)
	}

	// Forecast from the calibrated workload's seed table.
	seeds := workload.H264(workload.H264Config{Frames: 1}).ForecastSeeds(is)
	var cands []selection.Candidate
	for _, si := range is.HotSpotSIs(h) {
		cands = append(cands, selection.Candidate{SI: si, Expected: seeds[si.ID]})
	}
	reqs := selection.Greedy(cands, acs, is.Dim())
	fmt.Printf("hot spot %s, %d ACs — selection (NA = %d):\n", hotspot, acs,
		selection.Sup(reqs, is.Dim()).Determinant())
	for _, r := range reqs {
		fmt.Printf("  %-10s %v latency %d (expected %d execs)\n", r.SI.Name, r.Selected.Atoms, r.Selected.Latency, r.Expected)
	}

	avail := molecule.New(is.Dim())
	for _, name := range sched.Names {
		s, _ := sched.New(name)
		seq := s.Schedule(reqs, avail)
		fmt.Printf("\n%s schedule (%d Atom loads):\n ", name, len(seq))
		for _, atom := range seq {
			fmt.Printf(" %s", is.Atom(atom).Name)
		}
		fmt.Println()
	}
}
