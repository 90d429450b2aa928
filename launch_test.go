package agilla_test

// Tests for the public agent-programming surface: Network.Launch fed by
// the program package's three authoring forms, and the typed
// ErrNoSuchNode across every location-addressed entry point.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func quietNetwork(t *testing.T) *agilla.Network {
	t.Helper()
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 3)),
		agilla.WithSeed(1),
		agilla.WithReliableRadio(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestLaunchBuilderProgram(t *testing.T) {
	nw := quietNetwork(t)
	dest := agilla.Loc(2, 2)

	p, err := program.New("greeter").
		PushN("hi").Loc().PushC(2).Out().
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ag, err := nw.Launch(p, dest)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(30 * time.Second); err != nil || !done {
		t.Fatalf("agent did not finish: done=%v err=%v (%v)", done, err, ag)
	}
	if _, ok := nw.Space(dest).Rdp(agilla.Tmpl(agilla.Str("hi"), agilla.TypeV(3))); !ok {
		t.Error("greeting tuple missing at destination")
	}
}

func TestLaunchLibraryProgram(t *testing.T) {
	nw := quietNetwork(t)
	e, ok := program.Get("blink")
	if !ok {
		t.Fatal("library missing blink")
	}
	ag, err := nw.Launch(e.Program, agilla.Loc(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := ag.WaitDone(30 * time.Second); !done {
		t.Fatalf("blink did not finish: %v", ag)
	}
	if nw.Node(agilla.Loc(1, 2)).LED() != 7 {
		t.Error("blink did not drive the LEDs")
	}
}

func TestLaunchCombinatorProgramRuns(t *testing.T) {
	// A ForEachNeighbor program must actually iterate the acquaintance
	// list at runtime: count neighbors into <"cnt", n> via a heap slot.
	nw := quietNetwork(t)
	dest := agilla.Loc(2, 2)

	p := program.New("census").
		PushC(0).SetVar(0).
		ForEachNeighbor(1, func(b *program.Builder) {
			b.Pop().GetVar(0).Inc().SetVar(0)
		}).
		PushN("cnt").GetVar(0).PushC(2).Out().
		Halt().
		MustBuild()
	ag, err := nw.Launch(p, dest)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := ag.WaitDone(time.Minute); !done {
		t.Fatalf("census did not finish: %v", ag)
	}
	tup, ok := nw.Space(dest).Rdp(agilla.Tmpl(agilla.Str("cnt"), agilla.TypeV(1)))
	if !ok {
		t.Fatal("census tuple missing")
	}
	// The middle of a 3x3 grid corner region: (2,2) hears all 8 other
	// motes plus the base station with the default 1.5-cell range? The
	// exact count depends on the radio range; it must at least be >= 2.
	if n := tup.Fields[1].A; n < 2 {
		t.Errorf("neighbor census = %d, want >= 2", n)
	}
}

func TestLaunchNilProgram(t *testing.T) {
	nw := quietNetwork(t)
	if _, err := nw.Launch(nil, agilla.Loc(1, 1)); err == nil {
		t.Error("nil program must fail")
	}
}

func TestErrNoSuchNodeTyped(t *testing.T) {
	nw := quietNetwork(t)
	nowhere := agilla.Loc(40, 40)
	p := program.MustParse("halt")

	if _, err := nw.Launch(p, nowhere); !errors.Is(err, agilla.ErrNoSuchNode) {
		t.Errorf("Launch: %v does not wrap ErrNoSuchNode", err)
	}
	if err := nw.Space(nowhere).Out(agilla.T(agilla.Int(1))); !errors.Is(err, agilla.ErrNoSuchNode) {
		t.Errorf("Space.Out: %v does not wrap ErrNoSuchNode", err)
	}
	if err := nw.Remote().Rout(nowhere, agilla.T(agilla.Int(1))); !errors.Is(err, agilla.ErrNoSuchNode) {
		t.Errorf("Remote.Rout: %v does not wrap ErrNoSuchNode", err)
	}
	if _, _, err := nw.Remote().Rrdp(nowhere, agilla.Tmpl(agilla.Int(1))); !errors.Is(err, agilla.ErrNoSuchNode) {
		t.Errorf("Remote.Rrdp: %v does not wrap ErrNoSuchNode", err)
	}
}

func TestInjectRejectsUnverifiableSource(t *testing.T) {
	// Guaranteed stack underflow: the verifier must stop it with a
	// position before a Program exists that Launch could ship.
	_, err := program.Parse("pushc 1\npop\npop\nhalt")
	if err == nil {
		t.Fatal("unverifiable source must be rejected")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("error %q lacks position or cause", err)
	}
}

func TestInjectCodeVerifiesBytes(t *testing.T) {
	if _, err := program.FromBytes([]byte{0xee}); !errors.Is(err, program.ErrVerify) {
		t.Errorf("FromBytes(garbage): %v does not wrap program.ErrVerify", err)
	}
}
