package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// Arrivals is the arrival process FleetRun stamps on a dataset. The zero
// value offers every request at t=0: closed-loop saturation.
type Arrivals struct {
	// QPS > 0 offers users in Poisson bursts of their requests at that
	// request rate (see workload.AssignPoissonArrivals).
	QPS float64
	// Rate, when set, is an open-loop rate function that MaxRate bounds
	// (see workload.AssignOpenLoopArrivals). It takes precedence over QPS.
	Rate    workload.RateFn
	MaxRate float64
	// Seed drives the arrival process.
	Seed int64
}

// stamp sets every request's ArrivalTime and returns the arrivals in
// submission order.
func (a Arrivals) stamp(ds *workload.Dataset) ([]workload.Arrival, error) {
	switch {
	case a.Rate != nil:
		return workload.AssignOpenLoopArrivals(ds, a.Rate, a.MaxRate, a.Seed)
	case a.QPS > 0:
		return workload.AssignPoissonArrivals(ds, a.QPS, a.Seed)
	}
	out := make([]workload.Arrival, len(ds.Requests))
	for i, r := range ds.Requests {
		r.ArrivalTime = 0
		out[i] = workload.Arrival{Req: r}
	}
	return out, nil
}

// FleetResult is a drained, checked fleet run.
type FleetResult struct {
	// Records holds every completion record in finish order.
	Records []engine.Record
	// Makespan is the final simulated time.
	Makespan float64
	// Fleet is the drained fleet. Its accessors hold the run's counts:
	// sheds, GPU-seconds, cache hits, router loads, autoscaler and fault
	// statistics.
	Fleet *fleet.Fleet
}

// FleetRun is the run path of every experiment fleet. It stamps the
// arrivals on ds, overwriting each request's ArrivalTime. When spec
// enables faults without a horizon, it ends fault injection at the last
// arrival, so faults land while traffic flows and the run drains. It then
// builds the fleet, runs it to completion and checks its accounting.
// spec.ProfileMaxLen defaults to the dataset's longest input rounded up
// to the next thousand tokens, and spec.OnComplete is replaced by the
// run's record collector.
func FleetRun(spec fleet.Spec, ds *workload.Dataset, arr Arrivals) (*FleetResult, error) {
	if ds == nil {
		return nil, fmt.Errorf("experiments: FleetRun needs a dataset")
	}
	arrivals, err := arr.stamp(ds)
	if err != nil {
		return nil, err
	}
	if spec.Chaos.Enabled() && spec.Chaos.HorizonSeconds <= 0 && len(arrivals) > 0 {
		spec.Chaos.HorizonSeconds = arrivals[len(arrivals)-1].Time
	}
	if spec.ProfileMaxLen == 0 {
		spec.ProfileMaxLen = profileLen(ds)
	}
	res := &FleetResult{}
	spec.OnComplete = func(r engine.Record) { res.Records = append(res.Records, r) }
	f, err := fleet.New(spec)
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals {
		f.SubmitAt(a.Time, a.Req)
	}
	res.Makespan = f.Run()
	if err := f.Check(len(ds.Requests)); err != nil {
		return nil, err
	}
	res.Fleet = f
	return res, nil
}

// profileLen is the profile-run length every experiment fleet uses: the
// dataset's longest input rounded up to the next thousand tokens.
func profileLen(ds *workload.Dataset) int { return (ds.MaxLen/1000 + 1) * 1000 }

// cell is one named run of an extension sweep: a tweak of the sweep's
// fleet, which runs PrefillOnly on the L4 scenario, and the arrival
// process offered to a fresh clone of one of the sweep's datasets.
type cell struct {
	name     string
	data     int // index into the sweep's datasets
	spec     fleet.Spec
	arrivals Arrivals
}

// sweep is an extension study: its base datasets, the cells it builds
// from their saturation rates, and the projection of a cell's run onto a
// row. derive, when set, fills the columns that compare rows with each
// other once every cell has run.
type sweep[R any] struct {
	name     string
	datasets []*workload.Dataset
	cells    func(sat []float64) []cell
	row      func(c cell, ds *workload.Dataset, r *FleetResult) R
	derive   func(rows []R)
}

// run executes the sweep on the cell executor in two phases: PrefillOnly's
// saturation throughput on each dataset (the default two-instance L4
// cluster, all requests at t=0), then the cells built from those rates on
// the given shard count. Every run takes its own clone of an immutable
// base dataset, so rows are byte-identical at any parallelism and at any
// shard count: two orthogonal axes, cells across experiment points and
// shards within one run.
func (s sweep[R]) run(parallel, shards int) ([]R, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	sat, satStats, err := runCells(parallel, len(s.datasets), func(i int) (float64, error) {
		x, err := SaturationQPS(PrefillOnly, sc, s.datasets[i].Clone())
		if err != nil {
			return 0, fmt.Errorf("%s saturation on %s: %w", s.name, s.datasets[i].Name, err)
		}
		return x, nil
	})
	if err != nil {
		return nil, satStats, err
	}
	cells := s.cells(sat)
	rows, runStats, err := runCells(parallel, len(cells), func(i int) (R, error) {
		c := cells[i]
		ds := s.datasets[c.data].Clone()
		spec := c.spec
		spec.Model, spec.GPU, spec.Shards = sc.Model, sc.GPU, shards
		res, err := FleetRun(spec, ds, c.arrivals)
		if err != nil {
			var zero R
			return zero, fmt.Errorf("%s %s on %s: %w", s.name, c.name, ds.Name, err)
		}
		return s.row(c, ds, res), nil
	})
	stats := satStats.Merge(runStats)
	if err != nil {
		return nil, stats, err
	}
	if s.derive != nil {
		s.derive(rows)
	}
	return rows, stats, nil
}
