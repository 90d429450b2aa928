// Firetracking reproduces the paper's §5 case study end to end — now on a
// dynamic world: fire detection agents spread across an idle network, a
// tracker waits at the base station, a wildfire ignites, and the tracker
// swarm forms a dynamic perimeter around the flames. The fire is lethal:
// a mote that has burned for a while is destroyed (a scripted KillAt per
// ignited cell), so the swarm must keep re-forming on surviving hardware,
// and a guard agent posted near the ignition point senses the approaching
// flames and flees — surviving the death of its own host node, the
// adaptation story the paper's middleware exists to enable.
//
//	go run ./examples/firetracking
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/program"
)

const width, height = 5, 5

// burnout is how long a cell burns before the mote on it is destroyed.
const burnout = 30 * time.Second

func main() {
	// The fire spreads one cell every 40 seconds once ignited.
	fire := agilla.NewFire(40*time.Second, width, height)
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(width, height)),
		agilla.WithSeed(42),
		agilla.WithField(fire),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — idle-period deployment: one self-spreading FIREDETECTOR
	// is injected at the gateway; it weak-clones itself to every mote
	// (Figure 13's sensing loop, sampling every 2s here instead of the
	// paper's 10 minutes so the demo stays short).
	detector, err := program.Parse(agents.SpreaderSrc(agents.FireSentinelSrc(agilla.Loc(0, 0), 16)))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nw.Launch(detector.WithName("spreading-sentinel"), agilla.Loc(1, 1)); err != nil {
		log.Fatal(err)
	}
	covered := func() int {
		n := 0
		for _, loc := range nw.Locations() {
			if nw.Space(loc).Count(agilla.Tmpl(agilla.Str("vst"))) > 0 {
				n++
			}
		}
		return n
	}
	if _, err := nw.RunUntil(func() bool { return covered() >= 20 }, 5*time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detectors deployed on %d/25 motes\n", covered())

	// Phase 2 — a FIRETRACKER waits at the base station for the alert
	// (the Figure 2 prologue: React on <"fir", location>, then wait),
	// and a guard agent is posted next to the future ignition point: it
	// watches its thermometer and flees to the gateway the moment the
	// flames reach the next cell (reading > 120 means fire one hop away).
	tracker, _ := program.Get("fire-tracker")
	if _, err := nw.Launch(tracker.Program, agilla.Loc(0, 0)); err != nil {
		log.Fatal(err)
	}
	guardSrc := `
		WATCH pushc TEMPERATURE
		      sense
		      pushcl 120
		      clt            // condition = reading > 120: flames adjacent
		      rjumpc FLEE
		      pushcl 8
		      sleep          // 1 s at the 1/8 s tick
		      rjump WATCH
		FLEE  pushloc 1 1
		      smove          // outrun the fire: strong move to the gateway
		      pushn esc
		      pushc 1
		      out            // leave proof of the escape
		IDLE  pushcl 64
		      sleep
		      rjump IDLE
	`
	guardProgram, err := program.Parse(guardSrc)
	if err != nil {
		log.Fatal(err)
	}
	guardHome := agilla.Loc(3, 4) // one cell from where lightning will strike
	guard, err := nw.Launch(guardProgram.WithName("guard"), guardHome)
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.Run(2 * time.Second); err != nil {
		log.Fatal(err)
	}

	// Phase 3 — lightning strikes (4,4). The fire is now lethal: every
	// cell's mote is destroyed burnout after the cell ignites, scripted
	// as world events from the (deterministic) spread model.
	ignited := nw.Now()
	fire.Ignite(agilla.Loc(4, 4), ignited)
	var doomed []agilla.WorldEvent
	for _, loc := range nw.Locations() {
		if at, ok := fire.IgnitionTime(loc); ok {
			doomed = append(doomed, agilla.KillAt(at+burnout, loc))
		}
	}
	nw.Script(doomed...)
	fmt.Println("fire ignited at (4,4) — burning motes are destroyed after 30s")

	// Phase 4 — the detector routs <"fir",(4,4)> to the base; the
	// tracker reacts, clones to the fire, and recruits neighbors. The
	// base station's space handle watches for the alert insertion.
	alert := agilla.Tmpl(agilla.Str("fir"), agilla.TypeV(3))
	base := nw.Space(agilla.Loc(0, 0))
	alerts := base.Watch(alert)
	if ok, err := nw.RunUntil(func() bool {
		return base.Count(alert) > 0
	}, 5*time.Minute); err != nil || !ok {
		log.Fatalf("fire never detected (ok=%v err=%v)", ok, err)
	}
	fmt.Printf("alert %v reached the base %.1fs after ignition\n", <-alerts, (nw.Now() - ignited).Seconds())

	// Give the swarm 80 seconds — long enough for the first motes to
	// burn out and die — then draw the map.
	if err := nw.Run(80 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnetwork map at t+%.0fs   (# burning, X dead mote, T tracker, d detector, . idle)\n",
		(nw.Now() - ignited).Seconds())
	trk := agilla.Tmpl(agilla.Str("trk"))
	trackers, dead := 0, 0
	for y := height; y >= 1; y-- {
		var row strings.Builder
		for x := 1; x <= width; x++ {
			loc := agilla.Loc(int16(x), int16(y))
			life, _ := nw.Life(loc)
			switch {
			case life == agilla.NodeDown:
				row.WriteString(" X")
				dead++
			case fire.Burning(loc, nw.Now()):
				row.WriteString(" #")
			case nw.Space(loc).Count(trk) > 0:
				row.WriteString(" T")
				trackers++
			case nw.Space(loc).Count(agilla.Tmpl(agilla.Str("vst"))) > 0:
				row.WriteString(" d")
			default:
				row.WriteString(" .")
			}
		}
		fmt.Println(row.String())
	}
	fmt.Printf("\n%d motes destroyed by the fire; %d surviving motes host trackers\n", dead, trackers)

	// The paper's punchline, checkable on the agent handle: the guard
	// was hosted on a mote the fire has since destroyed, sensed the
	// flames coming, and moved out — the agent outlived its host.
	homeLife, _ := nw.Life(guardHome)
	switch {
	case guard.Alive() && homeLife == agilla.NodeDown && guard.Location() != guardHome:
		fmt.Printf("guard agent %d escaped: host %v is dead, agent alive at %v (%d hops)\n",
			guard.ID(), guardHome, guard.Location(), guard.Hops())
	case !guard.Alive():
		log.Fatalf("guard died: %v", guard.Err())
	default:
		log.Fatalf("guard at %v, home %v life %v — the escape did not happen as scripted",
			guard.Location(), guardHome, homeLife)
	}
}
