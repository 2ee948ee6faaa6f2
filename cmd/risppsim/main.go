// Command risppsim runs one RISPP simulation: a scheduler (or the Molen /
// software baselines) on the H.264 CIF encoder workload, printing cycle
// counts, per-SI statistics and optional execution histograms.
//
// Usage:
//
//	risppsim -sched HEF -acs 10 -frames 140
//	risppsim -sched Molen -acs 24
//	risppsim -sched HEF -acs 10 -frames 1 -hist
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rispp"
	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sim"
	"rispp/internal/stats"
	"rispp/internal/video"
	"rispp/internal/workload"
)

func main() {
	var (
		scheduler = flag.String("sched", "HEF", "scheduler: FSFR, ASF, SJF, HEF, Molen or software")
		acs       = flag.Int("acs", 10, "number of Atom Containers")
		frames    = flag.Int("frames", 140, "CIF frames to encode")
		seed      = flag.Int64("seed", 0, "workload PRNG seed")
		motion    = flag.Float64("motion", 0, "per-frame motion variability (0..1)")
		scene     = flag.Int("scene", 0, "scene-change frame (0 = none)")
		prefetch  = flag.Bool("prefetch", false, "enable next-hot-spot reconfiguration prefetching (RISPP)")
		fromVideo = flag.Bool("video", false, "derive the workload from a synthetic video scene instead of the calibrated trace")
		hist      = flag.Bool("hist", false, "print per-SI execution histograms (100K-cycle buckets)")
		timeline  = flag.Bool("timeline", false, "print SI latency steps")
		csv       = flag.Bool("csv", false, "machine-readable summary line")
		journal   = flag.String("journal", "", "write a JSONL simulation journal to this file")
	)
	flag.Parse()

	var tr *workload.Trace
	if *fromVideo {
		tr = video.Trace(video.TraceConfig{
			Scene: video.Scene{
				Seed:             *seed,
				PanX:             1 + 2**motion,
				Objects:          4,
				SceneChangeFrame: *scene,
			},
			Frames: *frames,
		})
	} else {
		tr = workload.H264(workload.H264Config{
			Frames:            *frames,
			Seed:              *seed,
			MotionVariability: *motion,
			SceneChangeFrame:  *scene,
		})
	}
	is := isa.H264()
	cfg := rispp.Config{
		ISA:           is,
		Scheduler:     *scheduler,
		NumACs:        *acs,
		Workload:      tr,
		SeedForecasts: true,
		Prefetch:      *prefetch,
	}
	if *hist {
		cfg.Collect.HistogramBucket = 100_000
	}
	cfg.Collect.Timeline = *timeline
	var jf *os.File
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fail(err)
		}
		// sim buffers the journal itself and reports the run's first write
		// error, so the file is handed over unbuffered.
		jf, cfg.Collect.Journal = f, f
	}

	ct, rt, err := rispp.Build(cfg)
	if err != nil {
		fail(err)
	}
	res := new(sim.Result)
	if err := sim.RunCompiled(context.Background(), ct, rt, cfg.Collect, res); err != nil {
		fail(err)
	}
	if jf != nil {
		if err := jf.Close(); err != nil {
			fail(err)
		}
	}

	if *csv {
		fmt.Printf("%s,%d,%d,%d\n", res.Runtime, *acs, *frames, res.TotalCycles)
		return
	}

	fmt.Printf("runtime:        %s\n", res.Runtime)
	fmt.Printf("atom containers:%d\n", *acs)
	fmt.Printf("frames:         %d\n", *frames)
	fmt.Printf("total cycles:   %d (%.1fM)\n", res.TotalCycles, float64(res.TotalCycles)/1e6)
	fmt.Printf("@100 MHz:       %.1f ms (%.1f fps)\n",
		float64(res.TotalCycles)/1e5, float64(*frames)*1e8/float64(res.TotalCycles))
	switch m := rt.(type) {
	case *core.Manager:
		fmt.Printf("atom loads:     %d (evictions %d, prefetch rounds %d)\n",
			m.AtomLoads(), m.Evictions(), m.Prefetches)
		fmt.Printf("forecast error: %.1f executions (mean abs)\n", m.Monitor().MeanAbsError())
	case *molen.Runtime:
		fmt.Printf("unit loads:     %d (%d atom-sized chunks)\n", m.Loads, m.AtomLoads)
	}

	tb := &stats.Table{Header: []string{"SI", "executions", "software", "hardware", "hw share"}}
	var ids []int
	for _, si := range res.ExecutedSIs() {
		ids = append(ids, int(si))
	}
	for _, id := range ids {
		si := isa.SIID(id)
		total := res.ExecutionsOf(si)
		hw := res.HWExecutionsOf(si)
		tb.AddRow(is.SI(si).Name, fmt.Sprint(total), fmt.Sprint(res.SWExecutionsOf(si)),
			fmt.Sprint(hw), fmt.Sprintf("%.1f%%", 100*float64(hw)/float64(total)))
	}
	fmt.Println()
	fmt.Print(tb.String())

	if res.Histogram != nil {
		fmt.Println("\nexecutions per 100K cycles:")
		labels := []string{}
		series := [][]int64{}
		for _, id := range ids {
			labels = append(labels, is.SI(isa.SIID(id)).Name)
			series = append(series, res.Histogram.Counts(id))
		}
		fmt.Print(stats.Chart(labels, series))
	}
	if res.Timeline != nil {
		fmt.Println("\nlatency steps (cycle:latency):")
		for _, id := range ids {
			ev := res.Timeline.PerSI(id)
			if len(ev) == 0 {
				continue
			}
			fmt.Printf("  %-10s", is.SI(isa.SIID(id)).Name)
			for _, e := range ev {
				fmt.Printf(" %d:%d", e.Cycle, e.Latency)
			}
			fmt.Println()
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "risppsim:", err)
	os.Exit(1)
}
