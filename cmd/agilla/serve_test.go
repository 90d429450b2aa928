package main

import (
	"strings"
	"testing"

	"github.com/agilla-go/agilla"
)

func TestWireSummaryNamesLosses(t *testing.T) {
	peers := map[string]agilla.TransportPeerStats{
		"udp:127.0.0.1:7001": {Sent: 10, Batches: 2, Recv: 9, Dropped: 3, Overflow: 4},
		"udp:127.0.0.1:7002": {Recv: 1, Overflow: 1},
	}
	got := wireSummary(peers)
	for _, want := range []string{"recv 10", "DROPPED 3", "OVERFLOW 5"} {
		if !strings.Contains(got, want) {
			t.Errorf("wireSummary = %q, missing %q", got, want)
		}
	}
	if quiet := wireSummary(map[string]agilla.TransportPeerStats{"loop:a": {Sent: 1}}); strings.Contains(quiet, "OVERFLOW") {
		t.Errorf("wireSummary without losses = %q, must not mention OVERFLOW", quiet)
	}
}
