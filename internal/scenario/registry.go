package scenario

// The shipped scenario registry. Every *.json file under data/ is a
// single Spec document, embedded into the binary, decoded and validated
// on first use (Find or Names), so binaries that never look a scenario up
// do not pay for building them. A malformed shipped scenario panics there
// and is never served; the digest-pinning test loads the registry, so it
// fails the build's tests, not a user's request.
//
// Ownership rule: the registry is append-only. A published name is a
// cache key (explore.Point.Scenario participates in the content-addressed
// result cache) and an experiment axis (EXPERIMENTS.md tables cite
// scenario names), so changing a shipped file would silently invalidate
// both. Edits therefore require a new scenario name; the digest-pinning
// test in scenario_test.go turns violations into test failures.

import (
	"bytes"
	"embed"
	"fmt"
	"sort"
	"sync"
)

//go:embed data/*.json
var dataFS embed.FS

var registry = sync.OnceValue(loadRegistry)

func loadRegistry() map[string]*Scenario {
	entries, err := dataFS.ReadDir("data")
	if err != nil {
		panic(fmt.Sprintf("scenario: embedded data: %v", err))
	}
	reg := make(map[string]*Scenario, len(entries))
	for _, e := range entries {
		raw, err := dataFS.ReadFile("data/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("scenario: read %s: %v", e.Name(), err))
		}
		sc, err := Decode(bytes.NewReader(raw))
		if err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", e.Name(), err))
		}
		want := sc.Name() + ".json"
		if e.Name() != want {
			panic(fmt.Sprintf("scenario: %s declares name %q (file must be %s)", e.Name(), sc.Name(), want))
		}
		reg[sc.Name()] = sc
	}
	return reg
}

// Find returns the shipped scenario with the given name.
func Find(name string) (*Scenario, bool) {
	sc, ok := registry()[name]
	return sc, ok
}

// Names returns the shipped scenario names, sorted.
func Names() []string {
	reg := registry()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
