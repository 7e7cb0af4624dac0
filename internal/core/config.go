// Package core implements OVS (Origin-destination-Volume-Speed), the
// paper's contribution: a modular model of the TOD → volume → speed
// generation chain that can be fitted to city-wide speed observations to
// recover the temporal origin-destination tensor.
//
// The three modules mirror §IV:
//
//   - TOD Generation (Eqs. 1-2): Gaussian seeds through two sigmoid FC
//     layers produce the TOD tensor.
//   - TOD-Volume Mapping (Eqs. 3-8): an OD→route split followed by a dynamic
//     2-D attention network (1×3 convolutions over route trip-count series,
//     aggregation into a system embedding, FC+softmax over lag windows) that
//     turns route trip counts into link volumes.
//   - Volume-Speed Mapping (Eqs. 9-11): shared LSTM→LSTM→FC layers mapping
//     each link's volume series (plus static link features) to speed.
//
// Training follows Fig. 8: stage 1 fits Volume-Speed on generated
// (volume, speed) pairs; stage 2 freezes it and fits TOD-Volume through the
// speed loss; at test time both are frozen and only TOD Generation is
// optimized against the observed speed tensor (plus optional auxiliary
// losses, §IV-E).
package core

// Config collects the model hyperparameters. Zero values select defaults
// scaled down for fast experiments; PaperConfig returns the values from
// Tables IV and V.
type Config struct {
	// Hidden is the FC width of the TOD generator and OD-route submodules
	// (paper: 16).
	Hidden int
	// LSTMHidden is the hidden width of the two Volume-Speed LSTMs
	// (paper: 128; default 24 keeps CI runs fast).
	LSTMHidden int
	// V2SFC is the FC width between the LSTMs and the speed head (paper: 32).
	V2SFC int
	// ConvChannels is the channel count of the two attention convolutions.
	ConvChannels int
	// Lookback is the attention window W: how many past intervals a link's
	// volume may attend to (the paper's "number of time frames to look back"
	// hyperparameter).
	Lookback int
	// MaxPos caps the per-route link-position buckets for the positional
	// component of the attention.
	MaxPos int
	// RoutesPerOD is k in the k-shortest-route split (1 = the paper's
	// simplification that each OD uses a single route).
	RoutesPerOD int
	// MaxTrips scales the sigmoid output of the TOD generator to trip
	// counts. Set it to (slightly above) the largest per-interval count the
	// training patterns can produce.
	MaxTrips float64
	// VolumeNorm normalizes volumes before the Volume-Speed LSTM.
	VolumeNorm float64
	// DropoutRate is applied inside TOD-Volume training (paper: 0.3).
	DropoutRate float64
	// LR is the Adam learning rate (paper: 0.001).
	LR float64
	// VolumeLossWeight adds direct volume supervision to stage-2 training.
	// The paper trains stage 2 through the speed loss alone; a small volume
	// term greatly accelerates the short training schedules used in tests
	// and is set to 0 by PaperConfig.
	VolumeLossWeight float64
	// GradClip bounds the global gradient norm (0 disables).
	GradClip float64
	// FitRestarts repeats the test-time fit from fresh generator seeds and
	// keeps the lowest-loss recovery (mitigates the multiple-solutions
	// issue; 1 = single fit).
	FitRestarts int
	// InitTripLevel sets the TOD generator's initial output as a fraction of
	// MaxTrips (0 = 0.5, the sigmoid midpoint). Calibrating it to the mean
	// of the generated training demand starts the test-time fit at a
	// sensible prior.
	InitTripLevel float64
	// RobustDelta, when positive, replaces the fit's squared speed error
	// with a pseudo-Huber loss of that scale (m/s). Residuals beyond the
	// scale grow linearly instead of quadratically, so links whose
	// volume-speed behavior changed after training (road work, accidents —
	// the RQ3 scenario) cannot dominate the recovered demand. 0 keeps MSE.
	RobustDelta float64
	// SmoothWeight penalizes successive-interval differences of the
	// recovered TOD during fitting (normalized units). Travel demand varies
	// smoothly in time; the penalty discards the wildly oscillating members
	// of the solution set that match speed equally well (§I's multiple-
	// solutions issue). 0 disables.
	SmoothWeight float64
	// Seed drives weight initialization and the generator's Gaussian seeds.
	Seed int64
	// Workers bounds the FitBestCtx restarts that run concurrently: 0 uses
	// the process-wide default (see internal/parallel, runtime.GOMAXPROCS at
	// startup), 1 runs them one after another. It is the only parallelism a
	// model has: each restart's mappings and kernels run on its own
	// goroutine. Results are identical at every setting; see the
	// determinism contract in internal/parallel.
	Workers int
}

// DefaultConfig returns a configuration sized for second-scale experiment
// runs (used by tests and the scaled-down benchmark harness).
func DefaultConfig() Config {
	return Config{
		Hidden:           16,
		LSTMHidden:       24,
		V2SFC:            16,
		ConvChannels:     4,
		Lookback:         6,
		MaxPos:           6,
		RoutesPerOD:      1,
		MaxTrips:         250,
		VolumeNorm:       50,
		DropoutRate:      0.0,
		LR:               0.01,
		VolumeLossWeight: 3.0,
		GradClip:         5,
		FitRestarts:      1,
		SmoothWeight:     2.0,
		Seed:             1,
	}
}

// PaperConfig returns the architecture and optimizer values of Tables IV
// and V: FC(16) stacks, LSTM(128)×2 + FC(32), learning rate 0.001, dropout
// 0.3, and speed-only stage-2 supervision.
func PaperConfig() Config {
	c := DefaultConfig()
	c.LSTMHidden = 128
	c.V2SFC = 32
	c.LR = 0.001
	c.DropoutRate = 0.3
	c.VolumeLossWeight = 0
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.LSTMHidden <= 0 {
		c.LSTMHidden = d.LSTMHidden
	}
	if c.V2SFC <= 0 {
		c.V2SFC = d.V2SFC
	}
	if c.ConvChannels <= 0 {
		c.ConvChannels = d.ConvChannels
	}
	if c.Lookback <= 0 {
		c.Lookback = d.Lookback
	}
	if c.MaxPos <= 0 {
		c.MaxPos = d.MaxPos
	}
	if c.RoutesPerOD <= 0 {
		c.RoutesPerOD = d.RoutesPerOD
	}
	if c.MaxTrips <= 0 {
		c.MaxTrips = d.MaxTrips
	}
	if c.VolumeNorm <= 0 {
		c.VolumeNorm = d.VolumeNorm
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.GradClip < 0 {
		c.GradClip = 0
	}
	if c.FitRestarts <= 0 {
		c.FitRestarts = 1
	}
	if c.Workers < 0 {
		c.Workers = 1
	}
	return c
}
