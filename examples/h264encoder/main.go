// The paper's headline experiment as an application: encode a CIF video
// sequence on a RISPP processor, sweeping the four SI schedulers and the
// Molen-like baseline over a range of Atom Container counts, and print the
// execution times (Figure 7) and speedups (Table 2).
//
// Flags allow shrinking the sweep for a quick look:
//
//	go run ./examples/h264encoder -frames 20 -acs 5,10,17,24
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/stats"
)

func main() {
	frames := flag.Int("frames", 140, "CIF frames to encode")
	acsFlag := flag.String("acs", "5,7,10,12,14,17,20,24", "comma-separated Atom Container counts")
	flag.Parse()

	var acs []int
	for _, f := range strings.Split(*acsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -acs element %q: %v", f, err)
		}
		acs = append(acs, n)
	}

	// The grid runs concurrently through the exploration engine; the
	// simulator is deterministic, so the numbers match a sequential sweep.
	systems := append(append([]string(nil), rispp.Schedulers...), "Molen")
	spec := explore.Spec{Schedulers: systems, ACs: acs, Frames: []int{*frames}}
	res, err := rispp.Explorer(rispp.Config{}, 0, nil).Execute(context.Background(), spec, nil)
	if err == nil {
		err = res.FirstErr()
	}
	if err != nil {
		log.Fatal(err)
	}
	cycles := make(map[string]map[int]int64)
	for _, rec := range res.Records {
		if cycles[rec.Point.Scheduler] == nil {
			cycles[rec.Point.Scheduler] = make(map[int]int64)
		}
		cycles[rec.Point.Scheduler][rec.Point.NumACs] = rec.TotalCycles
	}

	fmt.Printf("Encoding %d CIF frames — execution time [Mcycles]\n\n", *frames)
	tb := &stats.Table{Header: append([]string{"#ACs"}, systems...)}
	for _, n := range acs {
		row := []string{fmt.Sprint(n)}
		for _, s := range systems {
			row = append(row, fmt.Sprintf("%.1f", float64(cycles[s][n])/1e6))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb.String())

	fmt.Printf("\nSpeedups vs. the Molen-like baseline\n\n")
	tb2 := &stats.Table{Header: append([]string{"#ACs"}, rispp.Schedulers...)}
	for _, n := range acs {
		row := []string{fmt.Sprint(n)}
		for _, s := range rispp.Schedulers {
			row = append(row, stats.Speedup(cycles["Molen"][n], cycles[s][n]))
		}
		tb2.AddRow(row...)
	}
	fmt.Print(tb2.String())
}
