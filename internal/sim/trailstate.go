// Persistent delta-resimulation trails: the final rung of a completed
// Trail serialized to disk, so the full-skip path (Trail.Serve) survives
// process restarts.
//
// Only the final rung is portable. Intermediate rungs carry an opaque
// runtime state arena (trailSnap.rtState) — deep scheduler/monitor/
// container state with no stable serialized form — but the final rung is
// different in kind: a run that full-skips from it never touches a
// runtime at all, it just restores the Result accumulator and replays the
// journal bytes. Those are plain data. An imported trail therefore serves
// exactly the budgets a full skip is legal for and declines everything
// else — including extension to a longer trace, where its final rung would
// be a mid-run snapshot without the runtime state to continue from — which
// keeps the one invariant of this subsystem intact: a wrong resume can
// never happen, only a missed optimization.
package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rispp/internal/workload"
)

// TrailStateVersion is the format version of persisted trail states; bump
// it when the serialized fields or their meaning change, and old files
// become misses instead of wrong results.
const TrailStateVersion = 1

// TrailState is the portable form of a completed trail's final rung: the
// end-of-run Result accumulator plus the transfer-legality facts
// (demand/upOK) that decide which budgets may full-skip from it.
type TrailState struct {
	Version int    `json:"version"`
	Key     string `json:"key"` // caller's config identity; verified on load
	Name    string `json:"name"`
	Budget  int    `json:"budget"`
	Phases  int    `json:"phases"`
	NumSIs  int    `json:"sis"`
	Now     int64  `json:"now"`
	Demand  int    `json:"demand"`
	UpOK    bool   `json:"up_ok"`

	HasJournal bool   `json:"has_journal,omitempty"`
	Journal    []byte `json:"journal,omitempty"`

	Stall      int64       `json:"stall"`
	Execs      []int64     `json:"execs"`
	SWExecs    []int64     `json:"sw_execs"`
	HWExecs    []int64     `json:"hw_execs"`
	LastLat    []int       `json:"last_lat"`
	PhaseStats []PhaseStat `json:"phase_stats"`
}

// ExportState extracts the final-rung state of a complete trail, labeled
// with the caller's key. Returns false for incomplete trails.
func (t *Trail) ExportState(key string) (*TrailState, bool) {
	if !t.complete || len(t.snaps) == 0 {
		return nil, false
	}
	last := &t.snaps[len(t.snaps)-1]
	if last.phase != len(t.ct.Phases) {
		return nil, false // defensive: a complete trail always ends at the end
	}
	st := &TrailState{
		Version:    TrailStateVersion,
		Key:        key,
		Name:       t.name,
		Budget:     t.budget,
		Phases:     len(t.ct.Phases),
		NumSIs:     t.ct.NumSIs,
		Now:        last.now,
		Demand:     last.demand,
		UpOK:       last.upOK,
		HasJournal: t.hasJournal,
		Stall:      last.res.stall,
		Execs:      append([]int64(nil), last.res.execs...),
		SWExecs:    append([]int64(nil), last.res.swExecs...),
		HWExecs:    append([]int64(nil), last.res.hwExecs...),
		LastLat:    append([]int(nil), last.res.lastLat...),
		PhaseStats: append([]PhaseStat(nil), last.res.phases...),
	}
	if t.hasJournal {
		st.Journal = append([]byte(nil), t.jbuf...)
	}
	return st, true
}

// ImportTrail reconstructs a serve-only trail from a persisted state,
// bound to the caller's canonical compiled trace. The state must agree
// with the trace on phase count and SI count (and be internally
// consistent); anything else is a miss. The caller is responsible for
// matching Key to the configuration that produced the state — the
// structural checks here catch corruption and trace drift, not a wrong
// key discipline.
func ImportTrail(st *TrailState, ct *workload.Compiled) (*Trail, bool) {
	if st == nil || st.Version != TrailStateVersion {
		return nil, false
	}
	if st.Phases != len(ct.Phases) || st.NumSIs != ct.NumSIs {
		return nil, false
	}
	if len(st.Execs) != st.NumSIs || len(st.SWExecs) != st.NumSIs ||
		len(st.HWExecs) != st.NumSIs || len(st.LastLat) != st.NumSIs ||
		len(st.PhaseStats) != st.Phases {
		return nil, false
	}
	t := &Trail{
		name:       st.Name,
		budget:     st.Budget,
		ct:         ct,
		complete:   true,
		hasJournal: st.HasJournal,
		jbuf:       append([]byte(nil), st.Journal...),
	}
	t.snaps = []trailSnap{{
		phase:  st.Phases,
		now:    st.Now,
		demand: st.Demand,
		upOK:   st.UpOK,
		joff:   len(t.jbuf),
		// rtState stays nil: this rung serves full skips only.
		res: resultSnap{
			stall:   st.Stall,
			execs:   append([]int64(nil), st.Execs...),
			swExecs: append([]int64(nil), st.SWExecs...),
			hwExecs: append([]int64(nil), st.HWExecs...),
			lastLat: append([]int(nil), st.LastLat...),
			phases:  append([]PhaseStat(nil), st.PhaseStats...),
		},
	}}
	return t, true
}

// TrailStore persists trail states in a directory, one JSON file per
// (key, budget), named by the SHA-256 of the key plus the budget. Like the
// explore result cache it sits next to, the directory may be shared by
// concurrent workers (atomic writes, lost races on identical bytes
// tolerated) but must be exclusive to one base configuration — the key
// covers the run knobs, not the platform calibration.
type TrailStore struct {
	dir string
}

// OpenTrailStore opens (creating if needed) a trail store directory.
func OpenTrailStore(dir string) (*TrailStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: open trail store: %w", err)
	}
	return &TrailStore{dir: dir}, nil
}

// Dir returns the store directory.
func (s *TrailStore) Dir() string { return s.dir }

func (s *TrailStore) path(key string, budget int) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(h[:])+"-b"+strconv.Itoa(budget)+".trail.json")
}

// Put persists the trail's final rung under (key, its recorded budget).
// Incomplete trails are ignored.
func (s *TrailStore) Put(key string, t *Trail) error {
	st, ok := t.ExportState(key)
	if !ok {
		return nil
	}
	b, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("sim: trail store: %w", err) // plain data; cannot fail
	}
	b = append(b, '\n')
	dst := s.path(key, st.Budget)
	tmp, err := os.CreateTemp(s.dir, ".trail-*")
	if err != nil {
		return fmt.Errorf("sim: trail store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: trail store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: trail store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		// The simulator is deterministic: a concurrent writer of the same
		// (key, budget) holds identical bytes, so losing the rename race to
		// an equal entry is success.
		if cur, rerr := os.ReadFile(dst); rerr == nil && bytes.Equal(cur, b) {
			return nil
		}
		return fmt.Errorf("sim: trail store: %w", err)
	}
	return nil
}

// Get loads the trail persisted under (key, budget) and binds it to ct.
// Corrupt, foreign, version-skewed or trace-mismatched files are misses.
func (s *TrailStore) Get(key string, budget int, ct *workload.Compiled) (*Trail, bool) {
	b, err := os.ReadFile(s.path(key, budget))
	if err != nil {
		return nil, false
	}
	var st TrailState
	if json.Unmarshal(b, &st) != nil || st.Key != key || st.Budget != budget {
		return nil, false
	}
	return ImportTrail(&st, ct)
}

// Len counts the persisted trails.
func (s *TrailStore) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".trail.json") {
			n++
		}
	}
	return n
}
