package experiment

import (
	"context"
	"fmt"
	"math/rand"

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
// the fitted observation is corrupted.
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
	model, err := env.BuildOVS()
	if err != nil {
		return nil, err
	}
	if _, err := model.TrainV2SCtx(ctx, env.Samples, sc.V2SEpochs); err != nil {
		return nil, err
	}
	if _, err := model.TrainT2VCtx(ctx, env.Samples, sc.T2VEpochs); err != nil {
		return nil, err
	}

	out := &NoiseResult{}
	rng := rand.New(rand.NewSource(seed + 51))
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
		model.TODGen.Reseed(rand.New(rand.NewSource(seed + 52)))
		rec, _, err := model.FitBestCtx(ctx, obs, sc.FitEpochs, 1, nil)
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

// Degradation returns the ratio of the noisiest to the cleanest TOD RMSE —
// a single robustness figure for tests and summaries.
func (n *NoiseResult) Degradation() float64 {
	//ovslint:ignore floateq exact-zero RMSE guards the undefined degradation ratio denominator
	if len(n.Rows) < 2 || n.Rows[0].TOD == 0 {
		return 1
	}
	return n.Rows[len(n.Rows)-1].TOD / n.Rows[0].TOD
}
