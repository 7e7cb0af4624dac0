package experiment

import (
	"context"
	"fmt"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
)

// NoiseRow is one observation-noise level's recovery quality.
type NoiseRow struct {
	// NoiseStd is the Gaussian noise added to every observed speed (m/s).
	NoiseStd float64
	// TOD is the recovered-TOD RMSE at this noise level.
	TOD float64
}

// NoiseResult is an extension experiment: map-service speed feeds carry
// sensor error, so how quickly does recovery quality degrade with Gaussian
// observation noise? The chain is trained once on clean generated data; only
// the fitted observation is corrupted, and every level is fitted from the
// same entry generator.
type NoiseResult struct {
	Rows []NoiseRow
}

// RunNoiseRobustness sweeps observation noise on the Gaussian-pattern grid
// environment.
func RunNoiseRobustness(ctx context.Context, sc Scale, levels []float64, seed int64) (*NoiseResult, error) {
	if len(levels) == 0 {
		levels = []float64{0, 0.25, 0.5, 1.0, 2.0}
	}
	env, err := NewSyntheticEnv(ctx, dataset.PatternGaussian, sc, seed)
	if err != nil {
		return nil, err
	}
	c, err := env.trainChain(ctx, core.AblateNone, 1)
	if err != nil {
		return nil, err
	}

	out := &NoiseResult{}
	rng := newRand(seed + 51)
	for _, std := range levels {
		obs := env.GT.Speed.Clone()
		if std > 0 {
			for i := range obs.Data {
				obs.Data[i] += rng.NormFloat64() * std
				if obs.Data[i] < 0.1 {
					obs.Data[i] = 0.1
				}
			}
		}
		rec, err := c.fit(ctx, obs, sc.FitEpochs, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, NoiseRow{NoiseStd: std, TOD: metrics.RMSE(rec, env.GT.G)})
	}
	return out, nil
}

// Render prints the noise sweep.
func (n *NoiseResult) Render() string {
	rows := [][]string{{"Speed noise σ (m/s)", "RMSE_TOD"}}
	for _, r := range n.Rows {
		rows = append(rows, []string{fmt.Sprintf("%.2f", r.NoiseStd), fmt.Sprintf("%.2f", r.TOD)})
	}
	return "Extension: recovery vs speed-observation noise\n" + renderTable(rows)
}
