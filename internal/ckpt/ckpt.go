// Package ckpt is the fault-tolerant checkpoint subsystem for long training
// and fitting runs. A checkpoint is a single file holding everything needed
// to continue a run bitwise-identically after a crash or preemption: model
// parameters, optimizer slot state, the TOD generator's state, the training
// RNG position, epoch counters and loss history.
//
// Crash safety rests on three mechanisms:
//
//   - every file is written atomically (temp file + fsync + rename + dir
//     fsync, via cliutil.WriteFileAtomic), so a crash mid-write leaves the
//     previous checkpoint intact rather than a truncated file;
//   - the payload is wrapped in a versioned envelope carrying its exact
//     length and a CRC32 checksum, so truncation or bit rot of a completed
//     file is detected on read instead of deserializing garbage;
//   - Latest scans newest-first and silently skips invalid files, falling
//     back to the newest checkpoint that verifies — a partially written or
//     corrupted newest checkpoint costs at most one checkpoint interval of
//     progress, never the run.
//
// A Writer numbers checkpoints monotonically and prunes all but the newest
// K after each write, bounding disk use on long runs.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ovs/internal/cliutil"
	"ovs/internal/nn"
)

// Version is the current checkpoint format version. Read rejects files
// written by other versions.
const Version = 1

// Ext is the checkpoint file extension.
const Ext = ".ovsckpt"

// DefaultKeep is the retention depth used when a Writer is created with
// keep <= 0.
const DefaultKeep = 3

// magic identifies a checkpoint envelope; the trailing byte is the envelope
// (not payload) version, bumped only if the header layout itself changes.
var magic = [8]byte{'O', 'V', 'S', 'C', 'K', 'P', 'T', 1}

// headerSize is magic(8) + payload length(8, little-endian) + CRC32(4).
const headerSize = 20

// ErrNoCheckpoint is returned by Latest when the directory holds no valid
// checkpoint (including when it does not exist yet).
var ErrNoCheckpoint = errors.New("ckpt: no valid checkpoint")

// TensorState is one raw tensor snapshot: the tensors a TOD generator's
// StateTensors contract exposes carry no names, only a fixed order, so the
// record is positional.
type TensorState struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// Snapshot is the complete serialized training state at one point in a run.
// The invariant a snapshot encodes: all stages before Stage are complete
// (their loss curves live in PrevLoss), and Stage itself has completed Epoch
// epochs.
type Snapshot struct {
	Version int    `json:"version"`
	Stage   string `json:"stage"`
	Epoch   int    `json:"epoch"`

	// Loss is the current stage's per-epoch loss history up to Epoch.
	Loss []float64 `json:"loss,omitempty"`
	// PrevLoss holds the completed stages' full loss histories.
	PrevLoss map[string][]float64 `json:"prev_loss,omitempty"`

	// Params snapshots every model parameter (all modules).
	Params []nn.ParamState `json:"params"`
	// Opt is the current training stage's optimizer slot state; terminal
	// snapshots have none.
	Opt *nn.OptimizerState `json:"opt,omitempty"`
	// GenState snapshots the TOD generator's StateTensors — parameters plus
	// the Gaussian seeds, which are not part of Params.
	GenState []TensorState `json:"gen_state,omitempty"`

	// RNGSeed and RNGDraws pin the training RNG stream's position (see
	// autodiff.CountingSource).
	RNGSeed  int64  `json:"rng_seed"`
	RNGDraws uint64 `json:"rng_draws"`
}

// Encode writes the snapshot's envelope and payload to w.
func Encode(w io.Writer, snap *Snapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Decode parses and verifies a checkpoint envelope: magic, exact payload
// length, CRC32, and format version. Any mismatch — truncation, trailing
// garbage, bit rot, foreign files — is an error, never a partial snapshot.
func Decode(raw []byte) (*Snapshot, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("ckpt: %d bytes is shorter than the %d-byte header", len(raw), headerSize)
	}
	for i, b := range magic {
		if raw[i] != b {
			return nil, errors.New("ckpt: bad magic (not a checkpoint file)")
		}
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	if uint64(len(raw)-headerSize) != n {
		return nil, fmt.Errorf("ckpt: payload is %d bytes, header declares %d (truncated or corrupt)",
			len(raw)-headerSize, n)
	}
	payload := raw[headerSize:]
	want := binary.LittleEndian.Uint32(raw[16:20])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (%08x != %08x)", got, want)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("ckpt: decode payload: %w", err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("ckpt: format version %d, this build reads %d", snap.Version, Version)
	}
	if snap.Stage == "" {
		return nil, errors.New("ckpt: snapshot has no stage")
	}
	return &snap, nil
}

// Read loads and verifies one checkpoint file.
func Read(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// seqOf parses the sequence number out of a checkpoint file name
// ("ckpt-0000000042.ovsckpt"); ok is false for foreign names.
func seqOf(name string) (seq uint64, ok bool) {
	if filepath.Ext(name) != Ext {
		return 0, false
	}
	base := name[:len(name)-len(Ext)]
	const prefix = "ckpt-"
	if len(base) <= len(prefix) || base[:len(prefix)] != prefix {
		return 0, false
	}
	for _, ch := range base[len(prefix):] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(ch-'0')
	}
	return seq, true
}

// list returns the checkpoint sequence numbers present in dir, ascending.
func list(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := seqOf(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Path returns the file path of checkpoint seq in dir.
func Path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%010d%s", seq, Ext))
}

// Latest returns the newest valid checkpoint in dir, skipping corrupt or
// partial files. It returns ErrNoCheckpoint when the directory is missing,
// empty, or holds only invalid checkpoints.
func Latest(dir string) (*Snapshot, string, error) {
	seqs, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", ErrNoCheckpoint
		}
		return nil, "", err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := Path(dir, seqs[i])
		snap, rerr := Read(path)
		if rerr != nil {
			// Corrupt or partial: fall back to the next-newest. The file is
			// left in place for post-mortems; retention will age it out.
			continue
		}
		return snap, path, nil
	}
	return nil, "", ErrNoCheckpoint
}

// Writer writes numbered checkpoints into a directory with keep-last-K
// retention. It is not safe for concurrent use; training loops checkpoint
// from one goroutine.
type Writer struct {
	dir  string
	keep int
	seq  uint64
}

// NewWriter creates dir if needed and returns a writer that continues after
// the highest existing sequence number, so resumed runs never overwrite the
// checkpoints they resumed from. keep <= 0 selects DefaultKeep.
func NewWriter(dir string, keep int) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	seqs, err := list(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(0)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	return &Writer{dir: dir, keep: keep, seq: next}, nil
}

// Write persists snap atomically as the next numbered checkpoint, then
// prunes all but the newest keep checkpoints. It returns the written path.
func (w *Writer) Write(snap *Snapshot) (string, error) {
	snap.Version = Version
	path := Path(w.dir, w.seq)
	err := cliutil.WriteFileAtomic(path, func(out io.Writer) error {
		return Encode(out, snap)
	})
	if err != nil {
		return "", err
	}
	w.seq++
	return path, w.prune()
}

// prune removes every checkpoint older than the newest keep.
func (w *Writer) prune() error {
	seqs, err := list(w.dir)
	if err != nil {
		return err
	}
	if len(seqs) <= w.keep {
		return nil
	}
	for _, seq := range seqs[:len(seqs)-w.keep] {
		if err := os.Remove(Path(w.dir, seq)); err != nil {
			return err
		}
	}
	return nil
}
