// Package soak implements the kill-9 crash-restart soak harness: a
// deterministic writer that drives an OMC group onto a file-backed durable
// plane in a child process, a milestone protocol that parks the child on
// exact durable-path boundaries so the parent can SIGKILL it at seeded
// points, and a checker that cold-salvages the directory in the parent and
// compares the restored image against the golden diffcheck-style model.
//
// The writer and the golden model consume the same PRNG stream, so parent
// and child agree on every version ever written without sharing state —
// the only channel between them is the store directory itself, which is
// the point: durability claims are tested across real process death.
package soak

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// Members is the OMC partition count the soak writer drives. Each member
// seals every epoch on the shared plane, so one epoch becomes durable only
// after Members manifest renames.
const Members = 2

// pagSpan is the page-address span versions land in; small enough that
// epochs overlap heavily (overwrites exercise master-table merging).
const pageSpan = 24

// Params configures one soak run. The same Params must be given to the
// child writer and the parent checker.
type Params struct {
	Dir             string
	Seed            int64
	Epochs          int
	PerEpoch        int
	CheckpointEvery int
}

// DefaultParams returns the standard soak shape: 6 epochs of 24 versions
// with a base checkpoint every 3 segment seals, so a full run crosses
// several checkpoint rewrites and dozens of kill-eligible boundaries.
func DefaultParams(dir string, seed int64) Params {
	return Params{Dir: dir, Seed: seed, Epochs: 6, PerEpoch: 24, CheckpointEvery: 3}
}

// Child-process environment protocol. A binary that wants to host the soak
// writer (the recovery test binary, nvcheck) checks IsChild() at startup
// and hands control to ChildMain.
const (
	envChild    = "NVSOAK_CHILD"
	envDir      = "NVSOAK_DIR"
	envSeed     = "NVSOAK_SEED"
	envEpochs   = "NVSOAK_EPOCHS"
	envPerEpoch = "NVSOAK_PEREPOCH"
	envCkpt     = "NVSOAK_CKPT"
)

// IsChild reports whether this process was spawned as a soak writer child.
func IsChild() bool { return os.Getenv(envChild) == "1" }

// ChildEnv renders Params as the child's environment variables.
func ChildEnv(p Params) []string {
	return []string{
		envChild + "=1",
		envDir + "=" + p.Dir,
		envSeed + "=" + strconv.FormatInt(p.Seed, 10),
		envEpochs + "=" + strconv.Itoa(p.Epochs),
		envPerEpoch + "=" + strconv.Itoa(p.PerEpoch),
		envCkpt + "=" + strconv.Itoa(p.CheckpointEvery),
	}
}

func paramsFromEnv() (Params, error) {
	var p Params
	p.Dir = os.Getenv(envDir)
	if p.Dir == "" {
		return p, fmt.Errorf("%s not set", envDir)
	}
	for _, v := range []struct {
		env string
		dst *int
	}{
		{envEpochs, &p.Epochs},
		{envPerEpoch, &p.PerEpoch},
		{envCkpt, &p.CheckpointEvery},
	} {
		n, err := strconv.Atoi(os.Getenv(v.env))
		if err != nil {
			return p, fmt.Errorf("%s: %w", v.env, err)
		}
		*v.dst = n
	}
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return p, fmt.Errorf("%s: %w", envSeed, err)
	}
	p.Seed = seed
	return p, nil
}

// ChildMain runs the soak writer in a child process: params from the
// environment, milestones on stdout, permission to proceed read from
// stdin. Returns the process exit code.
func ChildMain() int {
	p, err := paramsFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvsoak child:", err)
		return 2
	}
	ms := &milestones{out: os.Stdout, in: bufio.NewReader(os.Stdin)}
	if err := WriteStoreFS(fault.OS, p, ms.hit); err != nil {
		fmt.Fprintln(os.Stderr, "nvsoak child:", err)
		return 1
	}
	return 0
}

// milestones implements the child half of the park-and-kill protocol:
// after every durable-path boundary the child prints one line
//
//	M <index> <point> <epoch>
//
// and blocks until the parent answers "GO". A SIGKILL therefore always
// lands while the child is parked at a known boundary — the kill point is
// exact and seeded, not racy.
type milestones struct {
	n   int
	out io.Writer
	in  *bufio.Reader
}

func (m *milestones) hit(point string, epoch uint64) {
	fmt.Fprintf(m.out, "M %d %s %d\n", m.n, point, epoch)
	m.n++
	line, err := m.in.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "GO" {
		// Orphaned (parent gone) or protocol breakdown: nothing to salvage
		// from this process, the store directory is the only output.
		os.Exit(3)
	}
}

// nextVersion derives the next deterministic version from the shared PRNG
// stream. Both the writer and Golden call it in the same order.
func nextVersion(rng *sim.RNG, epoch uint64) omc.Version {
	addr := (rng.Uint64n(pageSpan) + 1) << 12
	return omc.Version{Addr: addr, Epoch: epoch, Data: rng.Uint64()}
}

// writerConfig is the machine shape the writer drives: one versioned
// domain over a Members-partition OMC group, file plane attached.
func writerConfig(p Params) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	cfg.StoreDir = p.Dir
	cfg.CheckpointEvery = p.CheckpointEvery
	return cfg
}

// WriteStoreFS runs the deterministic soak writer to completion: a fresh
// file-backed store in p.Dir of fsys, p.Epochs sealed epochs of p.PerEpoch
// versions each. hit (may be nil) is invoked at every kill-eligible
// boundary: the writer-level points "epoch-start", "mid-writes" and
// "pre-seal", plus the plane's own durable-path points ("segment-synced",
// "checkpoint-written", "manifest-temp", "manifest-renamed").
//
// It is also usable in-process (hit == nil): the corruption tests build a
// complete store this way before mutilating its files. The disk-fault
// sweep drives exactly this writer against a fault-injecting in-memory
// store. A fault-wounded plane surfaces here as the mem.ErrPlaneWounded
// error ClosePlane returns; everything sealed before the wound is already
// on the filesystem for salvage.
//
// nvlint:durable
func WriteStoreFS(fsys fault.FS, p Params, hit func(point string, epoch uint64)) error {
	cfg := writerConfig(p)
	nvm := mem.NewNVM(&cfg)
	plane, err := mem.OpenFilePlaneFS(fsys, p.Dir, p.CheckpointEvery)
	if err != nil {
		return err
	}
	if hit != nil {
		plane.SetSealHook(hit)
	} else {
		hit = func(string, uint64) {}
	}
	nvm.AttachPlane(plane)
	g := omc.NewGroup(&cfg, nvm, Members, omc.WithRetention())
	rng := sim.NewRNG(p.Seed)
	now := uint64(0)
	for e := uint64(1); e <= uint64(p.Epochs); e++ {
		hit("epoch-start", e)
		for i := 0; i < p.PerEpoch; i++ {
			if i == p.PerEpoch/2 {
				hit("mid-writes", e)
			}
			now += 2500 // let bank drains stream between seals
			g.ReceiveVersion(nextVersion(rng, e), now)
		}
		hit("pre-seal", e)
		// The single VD's tag walker reports min-ver e+1: epoch e becomes
		// recoverable and every member seals it onto the plane.
		g.ReportMinVer(0, e+1, now)
	}
	hit("run-done", 0)
	return nvm.ClosePlane()
}

// Golden replays the version stream that WriteStoreFS(fsys, p, ...) writes and
// returns the cumulative last-write-wins image after each epoch;
// golden[0] is the empty pre-run state. This is the diffcheck-style model
// the salvaged image must match byte-for-byte.
func Golden(p Params) map[uint64]map[uint64]uint64 {
	rng := sim.NewRNG(p.Seed)
	golden := map[uint64]map[uint64]uint64{0: {}}
	cur := map[uint64]uint64{}
	for e := uint64(1); e <= uint64(p.Epochs); e++ {
		for i := 0; i < p.PerEpoch; i++ {
			v := nextVersion(rng, e)
			cur[v.Addr] = v.Data
		}
		snap := make(map[uint64]uint64, len(cur))
		//nvlint:allow maprange golden snapshot copy, order-independent
		for a, d := range cur {
			snap[a] = d
		}
		golden[e] = snap
	}
	return golden
}
