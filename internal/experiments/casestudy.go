package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/firesim"
	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/program"
)

// CaseStudyResult is the E8 fire detection/tracking scenario outcome (§5).
type CaseStudyResult struct {
	// Seed identifies the run.
	Seed int64
	// DetectorsDeployed counts motes running a FIREDETECTOR when the
	// fire ignites.
	DetectorsDeployed int
	// IgnitedAt and DetectedAt bound the detection latency: ignition to
	// the fire-alert tuple reaching the base station.
	IgnitedAt, DetectedAt time.Duration
	// TrackerArrivedAt is when the first FIRETRACKER clone reached the
	// fire region.
	TrackerArrivedAt time.Duration
	// Trackers counts tracker presence tuples at measurement time.
	Trackers int
	// PerimeterCells and PerimeterCovered measure the dynamic barrier:
	// perimeter cells of the burning region and how many host or neighbor
	// a tracker.
	PerimeterCells, PerimeterCovered int
	// Detected reports whether the pipeline completed.
	Detected bool
}

const caseStudySize = 5

// CaseStudyScenario returns the §5 scenario as a declarative
// agilla.Scenario, so one run is `scenario.Run(seed)` and a multi-seed
// sweep is `scenario.RunMany(ctx, seeds)` — the same definition serves
// both. The scripted phases live in the Play hook:
//
//  1. A FIREDETECTOR agent is injected at the gateway and spreads itself
//     to every mote by weak cloning (idle-period deployment, §5).
//  2. A FIRETRACKER is injected at the base station, registers its
//     reaction on <"fir", location>, and waits (Figure 2).
//  3. Fire ignites at (4,4) and spreads.
//  4. The detector at the burning mote senses >200, routs the alert to
//     the base (Figure 13); the tracker reacts, clones to the fire, and
//     swarms the perimeter.
func CaseStudyScenario() *agilla.Scenario {
	return &agilla.Scenario{
		Name:     "casestudy",
		Topology: agilla.Grid(caseStudySize, caseStudySize),
		FieldFor: func(int64) agilla.Field {
			bounds := firesim.GridBounds(caseStudySize, caseStudySize)
			return firesim.New(40*time.Second, &bounds)
		},
		Play: playCaseStudy,
	}
}

// launchCode verifies raw agent bytecode and launches it toward dest.
func launchCode(nw *agilla.Network, code []byte, dest topology.Location) error {
	p, err := program.FromBytes(code)
	if err != nil {
		return err
	}
	_, err = nw.Launch(p, dest)
	return err
}

// playCaseStudy scripts the four phases against a warmed-up network and
// records every measurement in the run's metrics. Every phase's wait
// predicate also polls ctx so an ensemble Ctrl-C interrupts mid-run.
func playCaseStudy(ctx context.Context, nw *agilla.Network, m *agilla.Metrics) error {
	fire := nw.Field().(*firesim.Fire)
	base := nw.Base().Loc()
	m.Completed = false
	cancelled := func() bool { return ctx.Err() != nil }

	// Phase 1: deploy detectors everywhere. The sentinel samples every
	// 2 s (16 ticks) so the compressed scenario stays short; the paper's
	// listing uses 10-minute idle sleeps.
	detector := agents.Spreader(agents.FireSentinelSrc(base, 16))
	if err := launchCode(nw, detector, topology.Loc(1, 1)); err != nil {
		return err
	}
	total := caseStudySize * caseStudySize
	deployed, err := nw.RunUntil(func() bool {
		return cancelled() || countDetectors(nw) >= total-5 // lossy flood: most of 25 motes
	}, 5*time.Minute)
	if err != nil {
		return err
	}
	if cancelled() {
		return nil
	}
	m.Set("detectors", float64(countDetectors(nw)))
	if !deployed {
		return nil
	}

	// Phase 2: one tracker waits at the base station.
	if err := launchCode(nw, agents.FireTracker(), base); err != nil {
		return err
	}
	if err := nw.Run(2 * time.Second); err != nil {
		return err
	}

	// Phase 3: ignition.
	fireAt := topology.Loc(4, 4)
	m.Set("ignited_at_s", nw.Now().Seconds())
	fire.Ignite(fireAt, nw.Now())

	// Phase 4: wait for the alert to reach the base.
	alertTmpl := tuplespace.Tmpl(tuplespace.Str("fir"), tuplespace.TypeV(tuplespace.TypeLocation))
	baseSpace := nw.Space(base)
	detected, err := nw.RunUntil(func() bool {
		return cancelled() || baseSpace.Count(alertTmpl) > 0
	}, 5*time.Minute)
	if err != nil {
		return err
	}
	if !detected || cancelled() {
		return nil
	}
	m.Set("detected_at_s", nw.Now().Seconds())

	// Wait for the first tracker presence in the fire region.
	trkTmpl := tuplespace.Tmpl(tuplespace.Str("trk"))
	arrived, err := nw.RunUntil(func() bool {
		if cancelled() {
			return true
		}
		for _, loc := range nw.Locations() {
			if loc.GridHops(fireAt) <= 1 && nw.Space(loc).Count(trkTmpl) > 0 {
				return true
			}
		}
		return false
	}, 5*time.Minute)
	if err != nil {
		return err
	}
	if !arrived || cancelled() {
		return nil
	}
	m.Set("tracker_at_s", nw.Now().Seconds())
	m.Completed = true

	// Let the swarm spread for a while, then measure the barrier while
	// the fire is still a compact region.
	if err := nw.Run(30 * time.Second); err != nil {
		return err
	}
	now := nw.Now()
	trackers := 0
	trackerAt := make(map[topology.Location]bool)
	for _, loc := range nw.Locations() {
		if nw.Space(loc).Count(trkTmpl) > 0 {
			trackers++
			trackerAt[loc] = true
		}
	}
	bounds := firesim.GridBounds(caseStudySize, caseStudySize)
	perim := fire.Perimeter(now, bounds)
	covered := 0
	for _, cell := range perim {
		if trackerAt[cell] {
			covered++
			continue
		}
		for _, nb := range []topology.Location{
			{X: cell.X + 1, Y: cell.Y}, {X: cell.X - 1, Y: cell.Y},
			{X: cell.X, Y: cell.Y + 1}, {X: cell.X, Y: cell.Y - 1},
		} {
			if trackerAt[nb] {
				covered++
				break
			}
		}
	}
	m.Set("trackers", float64(trackers))
	m.Set("perimeter_cells", float64(len(perim)))
	m.Set("perimeter_covered", float64(covered))
	return nil
}

// caseStudyResult converts a scenario run's metrics back to the
// structured result.
func caseStudyResult(m *agilla.Metrics) *CaseStudyResult {
	sec := func(k string) time.Duration { return time.Duration(m.Values[k] * float64(time.Second)) }
	return &CaseStudyResult{
		Seed:              m.Seed,
		DetectorsDeployed: int(m.Values["detectors"]),
		IgnitedAt:         sec("ignited_at_s"),
		DetectedAt:        sec("detected_at_s"),
		TrackerArrivedAt:  sec("tracker_at_s"),
		Trackers:          int(m.Values["trackers"]),
		PerimeterCells:    int(m.Values["perimeter_cells"]),
		PerimeterCovered:  int(m.Values["perimeter_covered"]),
		Detected:          m.Completed,
	}
}

// CaseStudy runs the §5 scenario once on the lossy testbed.
func CaseStudy(cfg Config) (*CaseStudyResult, error) {
	cfg = cfg.withDefaults()
	m, err := CaseStudyScenario().Run(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return caseStudyResult(m), nil
}

// countDetectors counts motes hosting at least one agent (the spreading
// detector marks each visited mote).
func countDetectors(nw *agilla.Network) int {
	n := 0
	for _, loc := range nw.Locations() {
		if nw.Space(loc).Count(tuplespace.Tmpl(tuplespace.Str("vst"))) > 0 {
			n++
		}
	}
	return n
}

// String renders the scenario report.
func (r *CaseStudyResult) String() string {
	var sb strings.Builder
	sb.WriteString("E8 — fire detection and tracking case study (§5)\n")
	fmt.Fprintf(&sb, "detectors deployed       %d of 25 motes\n", r.DetectorsDeployed)
	if !r.Detected {
		sb.WriteString("scenario did not complete (detection or tracking failed)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "detection latency        %.1fs (ignition -> alert at base)\n",
		(r.DetectedAt - r.IgnitedAt).Seconds())
	fmt.Fprintf(&sb, "tracker arrival          %.1fs after ignition\n",
		(r.TrackerArrivedAt - r.IgnitedAt).Seconds())
	fmt.Fprintf(&sb, "tracker swarm            %d motes hosting trackers\n", r.Trackers)
	fmt.Fprintf(&sb, "perimeter coverage       %d of %d cells covered\n",
		r.PerimeterCovered, r.PerimeterCells)
	return sb.String()
}

// CaseStudyEnsembleResult aggregates the case study across seeds.
type CaseStudyEnsembleResult struct {
	Runs []*CaseStudyResult
	// Requested is the full sweep size; on cancellation Runs holds only
	// the seeds that finished before the interrupt.
	Requested int
	Cancelled bool
}

// CaseStudyEnsemble sweeps the §5 scenario across runs seeds starting at
// cfg.Seed, fanning the independent deployments out across CPU cores via
// the scenario runner. Cancelling ctx abandons outstanding runs.
func CaseStudyEnsemble(ctx context.Context, cfg Config, runs int) (*CaseStudyEnsembleResult, error) {
	cfg = cfg.withDefaults()
	if runs < 1 {
		runs = 1
	}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	ms, err := CaseStudyScenario().RunMany(ctx, seeds)
	res := &CaseStudyEnsembleResult{Requested: len(seeds)}
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
		// A Ctrl-C abandons outstanding runs but the finished seeds are
		// still worth reporting.
		res.Cancelled = true
	}
	for _, m := range ms {
		if m != nil {
			res.Runs = append(res.Runs, caseStudyResult(m))
		}
	}
	return res, nil
}

// String renders the ensemble as a per-seed table plus aggregates.
func (r *CaseStudyEnsembleResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E8 — fire case study ensemble (%d seeds, parallel scenario runner)\n", len(r.Runs))
	if r.Cancelled {
		fmt.Fprintf(&sb, "cancelled: %d of %d requested runs finished before the interrupt\n",
			len(r.Runs), r.Requested)
	}
	t := stats.NewTable("Seed", "Detected", "Latency (s)", "Trackers", "Perimeter")
	var latency stats.Series
	detected := 0
	for _, run := range r.Runs {
		if !run.Detected {
			t.AddRow(run.Seed, "no", "-", "-", "-")
			continue
		}
		detected++
		lat := (run.DetectedAt - run.IgnitedAt).Seconds()
		latency.Add(lat * 1000)
		t.AddRow(run.Seed, "yes", fmt.Sprintf("%.1f", lat), run.Trackers,
			fmt.Sprintf("%d/%d", run.PerimeterCovered, run.PerimeterCells))
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "detection rate           %d/%d\n", detected, len(r.Runs))
	if latency.N() > 0 {
		fmt.Fprintf(&sb, "mean detection latency   %.1fs (σ %.1fs)\n",
			latency.Mean()/1000, latency.Std()/1000)
	}
	return sb.String()
}
