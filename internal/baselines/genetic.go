package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"ovs/internal/tensor"
)

// Genetic implements the evolutionary search baseline [32]: a population of
// TOD tensors is evolved to match the speed observation; fitness is the
// (negated) simulated speed RMSE. Selection keeps the elite, offspring come
// from uniform crossover plus Gaussian mutation.
type Genetic struct {
	// Population size (default 12).
	Population int
	// Generations to evolve (default 10).
	Generations int
	// Elite fraction carried over unchanged (default 0.25).
	Elite float64
	// MutationStd is the per-cell Gaussian mutation scale relative to
	// MaxTrips (default 0.1).
	MutationStd float64
}

// Name returns the paper's method label.
func (ga *Genetic) Name() string { return "Genetic" }

type scored struct {
	g     *tensor.Tensor
	score float64
}

// Recover evolves TOD candidates against the observation.
func (ga *Genetic) Recover(ctx context.Context, c *Context) (*tensor.Tensor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Simulate == nil {
		return nil, fmt.Errorf("baselines: Genetic requires a Simulate closure")
	}
	pop, gens, mut := orDefault(ga.Population, 12), orDefault(ga.Generations, 10), orDefault(ga.MutationStd, 0.1)
	elite := ga.Elite
	if elite <= 0 || elite >= 1 {
		elite = 0.25
	}
	rng := rand.New(rand.NewSource(c.Seed + 77))

	evaluate := func(g *tensor.Tensor) (float64, error) {
		speed, err := c.Simulate(ctx, g)
		if err != nil {
			return 0, err
		}
		return speedRMSE(speed, c.SpeedObs), nil
	}

	// Initialize uniformly in [0, MaxTrips/2]: random mid-scale demand.
	population := make([]scored, pop)
	for p := range population {
		g := tensor.RandUniform(rng, 0, c.MaxTrips/2, c.N(), c.T)
		score, err := evaluate(g)
		if err != nil {
			return nil, fmt.Errorf("baselines: Genetic init: %w", err)
		}
		population[p] = scored{g: g, score: score}
	}

	nElite := int(float64(pop) * elite)
	if nElite < 1 {
		nElite = 1
	}
	for gen := 0; gen < gens; gen++ {
		sort.Slice(population, func(a, b int) bool { return population[a].score < population[b].score })
		next := make([]scored, 0, pop)
		next = append(next, population[:nElite]...)
		for len(next) < pop {
			a := population[rng.Intn(nElite)]
			b := population[rng.Intn(pop/2+1)]
			child := crossoverMutate(a.g, b.g, mut*c.MaxTrips, c.MaxTrips, rng)
			score, err := evaluate(child)
			if err != nil {
				return nil, fmt.Errorf("baselines: Genetic generation %d: %w", gen, err)
			}
			next = append(next, scored{g: child, score: score})
		}
		population = next
	}
	sort.Slice(population, func(a, b int) bool { return population[a].score < population[b].score })
	return population[0].g, nil
}

// crossoverMutate performs uniform crossover followed by clipped Gaussian
// mutation.
func crossoverMutate(a, b *tensor.Tensor, std, maxTrips float64, rng *rand.Rand) *tensor.Tensor {
	child := a.Clone()
	for i := range child.Data {
		if rng.Float64() < 0.5 {
			child.Data[i] = b.Data[i]
		}
		if rng.Float64() < 0.2 {
			child.Data[i] += rng.NormFloat64() * std
		}
		if child.Data[i] < 0 {
			child.Data[i] = 0
		}
		if child.Data[i] > maxTrips {
			child.Data[i] = maxTrips
		}
	}
	return child
}
