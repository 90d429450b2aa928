// Multiapp demonstrates why agents beat statically-installed images:
// two independent applications share one network, and coordinate without
// knowing each other — the exact vignette of the paper's §2.2:
//
//	"suppose there is a fire detection and habitat monitoring agent
//	residing on the same node when fire is detected. The fire detection
//	agent inserts a fire tuple into the local tuple space ... The habitat
//	monitoring agent reacts to this tuple, and voluntarily kills itself
//	to free additional resources."
//
// Neither agent names the other; the tuple space decouples them in space
// and time.
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func main() {
	fire := agilla.NewFire(time.Minute, 3, 3)
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 3)),
		agilla.WithSeed(5),
		agilla.WithField(fire),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		log.Fatal(err)
	}
	mote := agilla.Loc(2, 2)
	space := nw.Space(mote)

	// Typed events replace guesswork about *why* the handoff happened:
	// the reaction-fired event names the agent whose reaction matched.
	reactions := nw.Events(agilla.OfKind(agilla.EventReactionFired))

	// Application 1: habitat monitoring. Samples the microphone every
	// couple of seconds and logs readings locally — but registers a
	// reaction on fire tuples and kills itself if one ever appears.
	habitat := `
		      pushn fir
		      pusht ANY
		      pushc 2
		      pushcl BAIL
		      regrxn          // if anyone reports fire, get out of the way
		LOOP  pushc SOUND
		      sense
		      pushc 1
		      out             // log the wildlife reading locally
		      pushc 16
		      sleep           // 2s
		      rjump LOOP
		BAIL  halt             // voluntarily free our resources
	`
	habitatAgent, err := nw.Launch(program.MustParse(habitat), mote)
	if err != nil {
		log.Fatal(err)
	}

	// Application 2: fire detection (Figure 13's sensing loop), deployed
	// by a different user onto the same mote.
	detector := `
		BEGIN pushc TEMPERATURE
		      sense
		      pushcl 200
		      clt
		      rjumpc FIRE
		      pushc 8
		      sleep           // 1s
		      rjump BEGIN
		FIRE  pushn fir
		      loc
		      pushc 2
		      out             // fire tuple into the LOCAL tuple space
		      halt
	`
	if _, err := nw.Launch(program.MustParse(detector), mote); err != nil {
		log.Fatal(err)
	}

	if err := nw.Run(15 * time.Second); err != nil {
		log.Fatal(err)
	}
	sound := agilla.Tmpl(agilla.TypeV(agilla.TypeOfSensor(agilla.SensorSound)))
	fmt.Printf("both applications share mote %v: %d agents, %d wildlife readings logged\n",
		mote, nw.Node(mote).NumAgents(), space.Count(sound))

	// Disaster strikes the mote itself.
	fire.Ignite(mote, nw.Now())
	fmt.Println("fire ignites under the mote...")

	gone, err := habitatAgent.WaitDone(time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	if !gone {
		log.Fatal("habitat agent never yielded")
	}
	// The event stream recorded the exact moment the coordination
	// happened: the detector's fire tuple triggered the habitat agent's
	// registered reaction.
	fmt.Printf("observed: %v\n", <-reactions)
	fmt.Printf("habitat agent %d killed itself — the two never knew each other's names\n", habitatAgent.ID())
	fmt.Printf("fire tuple present: %v\n", space.Count(agilla.Tmpl(agilla.Str("fir"), agilla.TypeV(0))) > 0)
}
