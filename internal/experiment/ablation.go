package experiment

import (
	"context"
	"fmt"

	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/metrics"
)

// AblationRow is one row of Table IX.
type AblationRow struct {
	Variant core.Ablation
	Metrics metrics.Triple
}

// AblationResult reproduces Table IX: OVS and its three FC-ablated variants
// evaluated on the Random synthetic pattern.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblation trains all four variants on one shared synthetic environment.
func RunAblation(ctx context.Context, sc Scale, seed int64) (*AblationResult, error) {
	env, err := NewSyntheticEnv(ctx, dataset.PatternRandom, sc, seed)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{}
	for _, ab := range []core.Ablation{core.AblateNone, core.AblateTODGen, core.AblateT2V, core.AblateV2S} {
		c, err := env.trainChain(ctx, ab, 1)
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation %v: %w", ab, err)
		}
		rec, err := c.fit(ctx, env.GT.Speed, sc.FitEpochs, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation %v: %w", ab, err)
		}
		triple, err := env.Evaluate(ctx, rec)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationRow{Variant: ab, Metrics: triple})
	}
	return out, nil
}

// Render prints Table IX.
func (a *AblationResult) Render() string {
	rows := [][]string{{"Method", "TOD", "vol", "speed"}}
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Variant.String(),
			fmt.Sprintf("%.2f", r.Metrics.TOD),
			fmt.Sprintf("%.2f", r.Metrics.Volume),
			fmt.Sprintf("%.2f", r.Metrics.Speed),
		})
	}
	return "Table IX: ablation study (Random pattern)\n" + renderTable(rows)
}
