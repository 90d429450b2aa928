// Searchrescue plays out the second act of the paper's motivating example
// (§2.1): fire fighters inject search-and-rescue agents that spread and
// repeatedly clone themselves, scouring the region for lost hikers, and
// report what they find back to the base station.
//
// Hikers are modelled as <"hkr"> tuples that personal locator beacons
// dropped into nearby motes' tuple spaces. A sweeping agent visiting a
// mote probes its local tuple space — decoupled discovery: the agent and
// the beacon never meet — and routs a <"fnd", location> report home.
//
//	go run ./examples/searchrescue
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/program"
)

func main() {
	nw, err := agilla.New(agilla.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		log.Fatal(err)
	}

	// Three lost hikers activate their beacons.
	hikers := []agilla.Location{agilla.Loc(2, 4), agilla.Loc(5, 2), agilla.Loc(4, 5)}
	for _, h := range hikers {
		if err := nw.Space(h).Out(agilla.T(agilla.Str("hkr"))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("hikers stranded at %v\n", hikers)

	// The search payload runs on every mote the sweep reaches: probe the
	// local space for a beacon; if found, report <"fnd", here> to base.
	payload := `
		     pushn hkr
		     pushc 1
		     rdp           // beacon here?
		     rjumpc FOUND
		     halt          // nothing here; this copy is done
		FOUND pop          // field count from the rdp result
		     pop           // the "hkr" field
		     pushn fnd
		     loc
		     pushc 2
		     pushloc 0 0
		     rout          // report to the base station
		     halt
	`
	// Inject one sweeping agent; it weak-clones across the whole grid.
	sweep, err := program.FromBytes(agents.Spreader(payload))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nw.Launch(sweep, agilla.Loc(1, 1)); err != nil {
		log.Fatal(err)
	}

	// Wait until the base has all three reports (the lossy radio may need
	// a moment; reports can be lost, so the paper's agents would re-sweep).
	report := agilla.Tmpl(agilla.Str("fnd"), agilla.TypeV(3))
	base := nw.Space(agilla.Loc(0, 0))
	found, err := nw.RunUntil(func() bool {
		return base.Count(report) >= len(hikers)
	}, 3*time.Minute)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nrescue reports at the base station (t=%v):\n", nw.Now())
	for _, tup := range base.All() {
		if report.Matches(tup) {
			fmt.Printf("  hiker located at %v\n", tup.Fields[1].Loc())
		}
	}
	if !found {
		fmt.Println("  (some reports lost to the radio; a real deployment re-sweeps)")
	}

	// Cross-check over the air: a network-wide query fans an rrdp out to
	// every mote and gathers the beacons that are still in place — the
	// base-station operator's view, no agents involved.
	matches, err := nw.Remote().Query(agilla.Tmpl(agilla.Str("hkr")))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nremote query <\"hkr\"> confirms beacons on %d motes:", len(matches))
	for _, m := range matches {
		fmt.Printf(" %v", m.Node)
	}
	fmt.Println()
}
