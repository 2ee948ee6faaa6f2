package oracle

import (
	"fmt"
	"io"

	"rispp/internal/isa"
	"rispp/internal/sim"
)

// Diff cross-checks a sim.Result against the oracle's reference Result
// field by field: cycle counts, per-SI execution splits, phase boundaries,
// latency timelines and histograms (artifacts are compared only when the
// oracle collected them). It returns nil when the results agree, or an
// error naming the first divergence.
func Diff(want *Result, got *sim.Result) error {
	if got.Runtime != want.Runtime {
		return fmt.Errorf("oracle: runtime %q, sim has %q", want.Runtime, got.Runtime)
	}
	if got.TotalCycles != want.TotalCycles {
		return fmt.Errorf("oracle: TotalCycles %d, sim has %d", want.TotalCycles, got.TotalCycles)
	}
	if got.StallCycles != want.StallCycles {
		return fmt.Errorf("oracle: StallCycles %d, sim has %d", want.StallCycles, got.StallCycles)
	}
	if err := diffCounts("Executions", want.Executions, got.Executions()); err != nil {
		return err
	}
	if err := diffCounts("SWExecutions", want.SWExecutions, got.SWExecutions()); err != nil {
		return err
	}
	if err := diffCounts("HWExecutions", want.HWExecutions, got.HWExecutions()); err != nil {
		return err
	}
	if len(got.Phases) != len(want.Phases) {
		return fmt.Errorf("oracle: %d phases, sim has %d", len(want.Phases), len(got.Phases))
	}
	for i, w := range want.Phases {
		g := got.Phases[i]
		if g.HotSpot != w.HotSpot || g.Start != w.Start || g.End != w.End {
			return fmt.Errorf("oracle: phase %d {hotspot %d, %d..%d}, sim has {hotspot %d, %d..%d}",
				i, w.HotSpot, w.Start, w.End, g.HotSpot, g.Start, g.End)
		}
	}
	if want.Timeline != nil || got.Timeline != nil {
		var events []LatencyStep
		if got.Timeline != nil {
			for _, e := range got.Timeline.Events {
				events = append(events, LatencyStep{Cycle: e.Cycle, SI: e.SI, Latency: e.Latency})
			}
		}
		if len(events) != len(want.Timeline) {
			return fmt.Errorf("oracle: %d timeline events, sim has %d", len(want.Timeline), len(events))
		}
		for i, w := range want.Timeline {
			if events[i] != w {
				return fmt.Errorf("oracle: timeline event %d is %+v, sim has %+v", i, w, events[i])
			}
		}
	}
	if want.Histogram != nil {
		sis := map[int]bool{}
		for si := range want.Histogram {
			sis[si] = true
		}
		if got.Histogram == nil {
			if len(sis) > 0 {
				return fmt.Errorf("oracle: histogram collected, sim has none")
			}
		} else {
			for _, si := range got.Histogram.SIs() {
				sis[si] = true
			}
			for si := range sis {
				w := trimZeros(want.Histogram[si])
				g := trimZeros(got.Histogram.Counts(si))
				if len(w) != len(g) {
					return fmt.Errorf("oracle: SI %d histogram spans %d buckets, sim has %d", si, len(w), len(g))
				}
				for b := range w {
					if w[b] != g[b] {
						return fmt.Errorf("oracle: SI %d histogram bucket %d is %d, sim has %d", si, b, w[b], g[b])
					}
				}
			}
		}
	}
	return nil
}

func trimZeros(row []int64) []int64 {
	for len(row) > 0 && row[len(row)-1] == 0 {
		row = row[:len(row)-1]
	}
	return row
}

func diffCounts(what string, want map[isa.SIID]int64, got map[isa.SIID]int64) error {
	for si, w := range want {
		if g := got[si]; g != w {
			return fmt.Errorf("oracle: %s[%d] = %d, sim has %d", what, si, w, g)
		}
	}
	for si, g := range got {
		if want[si] != g {
			return fmt.Errorf("oracle: %s[%d] = %d, sim has %d", what, si, want[si], g)
		}
	}
	return nil
}

// DiffJournal cross-checks the simulator's JSONL journal stream against the
// oracle's in-memory event list: same events, same order, same cycles.
func DiffJournal(want []Event, gotJournal io.Reader) error {
	events, err := sim.ReadJournal(gotJournal)
	if err != nil {
		return fmt.Errorf("oracle: sim journal does not parse: %w", err)
	}
	if len(events) != len(want) {
		return fmt.Errorf("oracle: %d journal events, sim has %d", len(want), len(events))
	}
	for i, w := range want {
		g := Event{Cycle: events[i].Cycle, Event: events[i].Event, HotSpot: events[i].HotSpot,
			SI: events[i].SI, Latency: events[i].Latency}
		if g != w {
			return fmt.Errorf("oracle: journal event %d is %+v, sim has %+v", i, w, g)
		}
	}
	return nil
}

// DiffResults cross-checks two simulator Results field by field — the
// sim-vs-sim counterpart of Diff, used to prove runtime reuse (Reset +
// rerun) behaviorally invisible: a reused runtime's Result must match a
// fresh construction's exactly. It returns nil when the results agree, or
// an error naming the first divergence.
func DiffResults(want, got *sim.Result) error {
	if want.Runtime != got.Runtime {
		return fmt.Errorf("oracle: runtime %q, reused run has %q", want.Runtime, got.Runtime)
	}
	if want.TotalCycles != got.TotalCycles {
		return fmt.Errorf("oracle: TotalCycles %d, reused run has %d", want.TotalCycles, got.TotalCycles)
	}
	if want.StallCycles != got.StallCycles {
		return fmt.Errorf("oracle: StallCycles %d, reused run has %d", want.StallCycles, got.StallCycles)
	}
	if err := diffCounts("Executions", want.Executions(), got.Executions()); err != nil {
		return err
	}
	if err := diffCounts("SWExecutions", want.SWExecutions(), got.SWExecutions()); err != nil {
		return err
	}
	if err := diffCounts("HWExecutions", want.HWExecutions(), got.HWExecutions()); err != nil {
		return err
	}
	if len(want.Phases) != len(got.Phases) {
		return fmt.Errorf("oracle: %d phases, reused run has %d", len(want.Phases), len(got.Phases))
	}
	for i, w := range want.Phases {
		if g := got.Phases[i]; g != w {
			return fmt.Errorf("oracle: phase %d is %+v, reused run has %+v", i, w, g)
		}
	}
	if (want.Timeline == nil) != (got.Timeline == nil) {
		return fmt.Errorf("oracle: timeline presence differs (%t vs %t)", want.Timeline != nil, got.Timeline != nil)
	}
	if want.Timeline != nil {
		if len(want.Timeline.Events) != len(got.Timeline.Events) {
			return fmt.Errorf("oracle: %d timeline events, reused run has %d",
				len(want.Timeline.Events), len(got.Timeline.Events))
		}
		for i, w := range want.Timeline.Events {
			if g := got.Timeline.Events[i]; g != w {
				return fmt.Errorf("oracle: timeline event %d is %+v, reused run has %+v", i, w, g)
			}
		}
	}
	if (want.Histogram == nil) != (got.Histogram == nil) {
		return fmt.Errorf("oracle: histogram presence differs (%t vs %t)", want.Histogram != nil, got.Histogram != nil)
	}
	if want.Histogram != nil {
		sis := map[int]bool{}
		for _, si := range want.Histogram.SIs() {
			sis[si] = true
		}
		for _, si := range got.Histogram.SIs() {
			sis[si] = true
		}
		for si := range sis {
			w := trimZeros(want.Histogram.Counts(si))
			g := trimZeros(got.Histogram.Counts(si))
			if len(w) != len(g) {
				return fmt.Errorf("oracle: SI %d histogram spans %d buckets, reused run has %d", si, len(w), len(g))
			}
			for b := range w {
				if w[b] != g[b] {
					return fmt.Errorf("oracle: SI %d histogram bucket %d is %d, reused run has %d", si, b, w[b], g[b])
				}
			}
		}
	}
	return nil
}
