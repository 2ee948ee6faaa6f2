package oracle

import (
	"fmt"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sched"
	"rispp/internal/workload"
)

// Systems lists the six run-time systems of the paper's evaluation: the
// four RISPP SI schedulers, the Molen-like baseline and the plain base
// processor.
var Systems = []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"}

// NewSystem builds a fresh run-time system for one of Systems with the
// paper-default calibration (default reconfiguration timing, LRU eviction,
// greedy Molecule selection) and forecasts seeded from tr's seed table
// (workload.Trace.ForecastSeeds, the design-time estimation of the
// toolchain) — the same construction rispp.Build performs for a Config
// with SeedForecasts set. Each call returns an independent instance, so the
// oracle and the simulator can drive twins of the same system through the
// same trace.
func NewSystem(name string, is *isa.ISA, numACs int, tr *workload.Trace) (Runtime, error) {
	switch name {
	case "software":
		return Software(is), nil
	case "Molen", "molen":
		return molen.New(molen.Config{ISA: is, NumACs: numACs, ForecastSeeds: tr.ForecastSeeds(is)}), nil
	default:
		s, err := sched.New(name)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		return core.NewManager(core.Config{ISA: is, NumACs: numACs, Scheduler: s, ForecastSeeds: tr.ForecastSeeds(is)}), nil
	}
}
