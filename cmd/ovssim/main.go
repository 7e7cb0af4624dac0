// Command ovssim runs the traffic simulator on a TOD demand and prints (or
// writes) the resulting per-link volume/speed tensors as JSON.
//
// Usage:
//
//	ovssim -city Hangzhou -demand demand.json -o out.json
//	ovssim -grid 3x3 -pattern Random -scale 0.5 -intervals 8
//	ovssim -net network.json -demand demand.json -engine micro
//
// Demand files use the trafficio format: {"ods": [[o,d],...], "g": [[...]]}.
// Without -demand, a synthetic TOD is drawn from -pattern over the city's
// preset OD pairs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"

	"ovs/internal/cliutil"
	"ovs/internal/dataset"
	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/trafficio"
)

func main() {
	cityName := flag.String("city", "", "city preset: Hangzhou|Porto|Manhattan|StateCollege")
	gridSpec := flag.String("grid", "", "grid network, e.g. 3x3")
	netPath := flag.String("net", "", "network JSON (trafficio format)")
	demandPath := flag.String("demand", "", "demand JSON file (optional)")
	patternName := flag.String("pattern", "Random", "synthetic pattern when no -demand given")
	scale := flag.Float64("scale", 0.5, "synthetic demand scale")
	intervals := flag.Int("intervals", 8, "number of observation intervals")
	intervalSec := flag.Float64("intervalsec", 300, "interval length in seconds")
	engine := flag.String("engine", "meso", "engine: meso|micro")
	routing := flag.String("routing", "static", "routing: static|dynamic|stochastic")
	signals := flag.Bool("signals", false, "add fixed-time signals at major intersections")
	seed := flag.Int64("seed", 1, "simulation seed")
	outPath := flag.String("o", "", "output JSON path (default stdout)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()

	ctx, cancel := cliutil.RootContext(*timeout)
	if err := run(ctx, *cityName, *gridSpec, *netPath, *demandPath, *patternName,
		*scale, *intervals, *intervalSec, *engine, *routing, *signals, *seed, *outPath); err != nil {
		code := 1
		switch {
		case errors.Is(err, errUsage):
			fmt.Fprintf(os.Stderr, "ovssim: %v\n", err)
			code = 2
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "cancelled: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		cancel()
		os.Exit(code)
	}
	cancel()
}

// errUsage marks a bad flag value; main exits 2 on it, before any work.
var errUsage = errors.New("bad flag value")

func run(ctx context.Context, cityName, gridSpec, netPath, demandPath, patternName string,
	scale float64, intervals int, intervalSec float64,
	engineName, routingName string, signals bool, seed int64, outPath string) error {
	if intervals < 1 {
		return fmt.Errorf("%w: -intervals %d: want at least 1", errUsage, intervals)
	}
	if !positiveFinite(intervalSec) {
		return fmt.Errorf("%w: -intervalsec %v: want a finite number of seconds > 0", errUsage, intervalSec)
	}
	if !positiveFinite(scale) {
		return fmt.Errorf("%w: -scale %v: want a finite value > 0", errUsage, scale)
	}

	var net *roadnet.Network
	var city *dataset.City
	switch {
	case cityName != "":
		c, err := dataset.ByName(cityName, dataset.CityOptions{Seed: seed})
		if err != nil {
			return err
		}
		city, net = c, c.Net
	case gridSpec != "":
		var rows, cols int
		if _, err := fmt.Sscanf(gridSpec, "%dx%d", &rows, &cols); err != nil {
			return fmt.Errorf("bad -grid %q (want RxC)", gridSpec)
		}
		net = roadnet.Grid(roadnet.GridConfig{Rows: rows, Cols: cols})
		rng := rand.New(rand.NewSource(seed))
		regions := roadnet.PerNodeRegions(net, rng)
		city = &dataset.City{
			Name: gridSpec, Net: net,
			Regions: regions,
			Kinds:   make([]dataset.RegionKind, len(regions)),
			Pairs:   roadnet.SelectODPairs(regions, 8, rng),
		}
		city.ResolveODs()
	case netPath != "":
		if err := cliutil.ReadFile(netPath, func(r io.Reader) error {
			var err error
			net, err = trafficio.ReadNetwork(r)
			return err
		}); err != nil {
			return err
		}
		if demandPath == "" {
			return fmt.Errorf("-net requires -demand (no preset OD pairs available)")
		}
	default:
		return fmt.Errorf("one of -city, -grid, or -net is required")
	}

	var eng sim.Engine
	switch strings.ToLower(engineName) {
	case "meso":
		eng = sim.Meso
	case "micro":
		eng = sim.Micro
	default:
		return fmt.Errorf("unknown engine %q", engineName)
	}
	var mode sim.RoutingMode
	switch strings.ToLower(routingName) {
	case "static":
		mode = sim.StaticRouting
	case "dynamic":
		mode = sim.DynamicRouting
	case "stochastic":
		mode = sim.StochasticRouting
	default:
		return fmt.Errorf("unknown routing %q", routingName)
	}

	var demand sim.Demand
	if demandPath != "" {
		if err := cliutil.ReadFile(demandPath, func(r io.Reader) error {
			var err error
			demand, err = trafficio.ReadDemand(r)
			return err
		}); err != nil {
			return err
		}
		intervals = demand.G.Dim(1)
	} else {
		var pat dataset.Pattern
		found := false
		for _, p := range dataset.AllPatterns {
			if strings.EqualFold(p.String(), patternName) {
				pat, found = p, true
			}
		}
		if !found {
			return fmt.Errorf("unknown pattern %q", patternName)
		}
		rng := rand.New(rand.NewSource(seed + 1))
		g := dataset.GenerateTOD(pat, dataset.TODConfig{
			Pairs: city.NumPairs(), Intervals: intervals,
			IntervalMinutes: intervalSec / 60, Scale: scale,
		}, rng)
		demand = sim.Demand{ODs: city.ODs, G: g}
	}

	cfg := sim.Config{
		Intervals: intervals, IntervalSec: intervalSec,
		Engine: eng, Routing: mode, Seed: seed,
	}
	if signals {
		cfg.Signals = sim.UniformSignals(net, 60, 3)
	}
	res, err := sim.New(net, cfg).RunCtx(ctx, demand)
	if err != nil {
		return err
	}

	if outPath != "" {
		return cliutil.WriteFileAtomic(outPath, func(w io.Writer) error {
			return trafficio.WriteResult(w, res)
		})
	}
	return trafficio.WriteResult(os.Stdout, res)
}

// positiveFinite reports whether v is a finite number greater than zero.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
