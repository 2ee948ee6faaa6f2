package explore

import (
	"os"
	"sync"
	"testing"
)

// TestCacheConcurrentWritersSharedDir hammers one cache directory from many
// goroutines across two independent Cache instances — the multi-process
// sharing mode of the sweep fabric (several risppserve workers pointed at
// one directory). Every Put must succeed: each instance appends to a log of
// its own, and racing writers of one point hold byte-identical entries.
func TestCacheConcurrentWritersSharedDir(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	points := make([]Point, 8)
	for i := range points {
		points[i] = Point{Scheduler: "HEF", NumACs: i + 1, Frames: 5}.Normalized()
	}
	metrics := func(p Point) Metrics {
		return Metrics{TotalCycles: int64(p.NumACs) * 1000, StallCycles: 7,
			SWExecutions: 1, HWExecutions: 2}
	}

	const writersPerCache = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*writersPerCache*len(points))
	for _, c := range []*Cache{c1, c2} {
		for w := 0; w < writersPerCache; w++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				for _, p := range points {
					if err := c.Put(p, metrics(p)); err != nil {
						errs <- err
					}
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Put: %v", err)
	}

	if got := c1.Len(); got != len(points) {
		t.Errorf("cache holds %d entries, want %d", got, len(points))
	}
	for _, p := range points {
		if m, ok := c2.Get(p); !ok || m != metrics(p) {
			t.Errorf("after the race, %s: %+v ok=%v", p.Key(), m, ok)
		}
	}
	// One log per writing instance and nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || !logName.MatchString(names[0]) || !logName.MatchString(names[1]) {
		t.Errorf("cache directory holds %v, want two logs", names)
	}
}
