// Quickstart: bring up the paper's 5×5 testbed, author one agent with
// the typed program builder, launch it from the base station, and read
// the tuple it leaves behind.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func main() {
	// With no topology option New builds the paper's testbed: a 5×5
	// MICA2 grid with a calibrated lossy CC1000 radio and a base station
	// at (0,0).
	nw, err := agilla.New(agilla.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	// Beacons populate every node's acquaintance list.
	if err := nw.WarmUp(); err != nil {
		log.Fatal(err)
	}

	// The network is deployed with no application installed. Author a
	// greeter agent with the typed builder: it lights the LEDs, drops a
	// tuple <"hi", (3,3)> into the local tuple space, and dies. Build
	// runs the static verifier — label resolution, jump bounds, and a
	// worst-case stack analysis — so a program that launches is one the
	// VM can run. (The same agent in assembly ships as
	// program.Get("blink"); program.Parse accepts the textual dialect.)
	greeter, err := program.New("greeter").
		PushC(7).Putled(). // all three LEDs on
		PushN("hi").       // push the string "hi"
		Loc().             // push this node's location
		PushC(2).Out().    // two fields: insert <"hi", (3,3)> locally
		Halt().            // the agent dies; Agilla reclaims its resources
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// Launch injects the program from the base station toward (3,3).
	ag, err := nw.Launch(greeter, agilla.Loc(3, 3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("launched %v as agent %d; migrating (0,0) -> (3,3)...\n", greeter, ag.ID())

	// Injection is a real multi-hop migration over the lossy radio; the
	// handle observes the agent completing without hand-rolled polling.
	done, err := ag.WaitDone(10 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if !done {
		log.Fatalf("agent did not finish in time: %v (very unlucky radio run — try another seed)", ag)
	}
	fmt.Printf("agent finished after %d hops at %v\n", ag.Hops(), ag.Location())

	// Find the greeting by pattern matching through the mote's tuple
	// space handle: a template field of string type is exact-match; a
	// type wildcard matches any location.
	tup, ok := nw.Space(agilla.Loc(3, 3)).Rdp(agilla.Tmpl(
		agilla.Str("hi"),
		agilla.TypeV(3), // location wildcard
	))
	if !ok {
		log.Fatal("greeting tuple not found (very unlucky radio run — try another seed)")
	}
	fmt.Printf("mote (3,3) tuple space has %v, LED=%d\n", tup, nw.Node(agilla.Loc(3, 3)).LED())
	fmt.Printf("live agents remaining: %d (the greeter halted and was reclaimed)\n", nw.TotalAgents())
}
