package soak

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"

	"repro/internal/fault"
	"repro/internal/recovery"
)

// ErrNoSpace types a soak failure caused by the store's filesystem running
// out of space. The crash-soak harness must distinguish this from a
// durability contract violation: the run still fails (non-zero exit, the
// partial tally is flushed), but the blame is the environment, not the
// store. Callers detect it with IsNoSpace.
var ErrNoSpace = errors.New("soak: store filesystem out of space")

// IsNoSpace reports whether err is an out-of-space failure — either the
// typed ErrNoSpace wrap from a child writer or a raw ENOSPC surfaced by a
// parent-side filesystem call.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// wrapChildErr types a failed child writer's exit. A child that died on
// ENOSPC prints the errno text to stderr before exiting non-zero; that is
// the only channel the parent has, so classification is textual.
func wrapChildErr(err error, stderr string) error {
	if strings.Contains(stderr, "no space left on device") {
		return fmt.Errorf("%w: child failed: %v; stderr: %s", ErrNoSpace, err, stderr)
	}
	return fmt.Errorf("soak: child failed: %v; stderr: %s", err, stderr)
}

// Result summarises one parent-side soak run.
type Result struct {
	// Killed reports whether the child was SIGKILLed (false: ran to
	// completion and exited 0).
	Killed bool
	// KillIndex / KillPoint / KillEpoch identify the milestone the child
	// was parked on when killed (index -1 when not killed).
	KillIndex int
	KillPoint string
	KillEpoch uint64
	// DurableEpoch is the newest epoch whose seal every member published
	// (Members manifest renames acknowledged) before the run ended — the
	// epoch the store directory must provably restore.
	DurableEpoch uint64
	// Milestones counts milestones the child reached.
	Milestones int
}

// Run spawns bin args... as a soak writer child (ChildEnv(p) appended to
// the environment), feeds it permission milestone by milestone, and
// SIGKILLs it while it is parked on milestone killAt. A killAt beyond the
// run's milestone count lets the child run to completion (useful both as
// the control case and to count milestones).
//
// Because the child blocks on stdin after announcing each milestone, the
// kill lands at an exact, reproducible boundary: killing at index k after
// seed s always leaves byte-identical directory contents modulo file
// timestamps.
func Run(bin string, args []string, p Params, killAt int) (*Result, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), ChildEnv(p)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("soak: stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("soak: stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("soak: start child: %w", err)
	}
	abort := func(err error) (*Result, error) {
		_ = cmd.Process.Kill() // best-effort teardown; err already holds the cause
		_ = cmd.Wait()
		return nil, err
	}
	res := &Result{KillIndex: -1}
	renamed := make(map[uint64]int)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var (
			idx   int
			point string
			epoch uint64
		)
		if _, err := fmt.Sscanf(sc.Text(), "M %d %s %d", &idx, &point, &epoch); err != nil {
			return abort(fmt.Errorf("soak: bad milestone %q from child: %w", sc.Text(), err))
		}
		res.Milestones = idx + 1
		// Milestones announce completed actions, so a rename milestone means
		// the manifest is already durable — even if we kill on it.
		if point == "manifest-renamed" {
			renamed[epoch]++
			if renamed[epoch] >= Members && epoch > res.DurableEpoch {
				res.DurableEpoch = epoch
			}
		}
		if idx == killAt {
			res.Killed = true
			res.KillIndex, res.KillPoint, res.KillEpoch = idx, point, epoch
			if err := cmd.Process.Kill(); err != nil {
				return abort(fmt.Errorf("soak: kill child: %w", err))
			}
			_ = stdin.Close()
			_ = cmd.Wait() // SIGKILL: the non-zero exit is the point
			return res, nil
		}
		if _, err := io.WriteString(stdin, "GO\n"); err != nil {
			return abort(fmt.Errorf("soak: feeding child: %w", err))
		}
	}
	if err := sc.Err(); err != nil {
		return abort(fmt.Errorf("soak: reading child: %w", err))
	}
	if err := cmd.Wait(); err != nil {
		return nil, wrapChildErr(err, stderr.String())
	}
	return res, nil
}

// CheckDirFS cold-salvages the store directory of fsys and verifies the
// salvage-or-refuse contract against what the parent observed:
//
//   - a refusal is acceptable only when nothing was ever durable
//     (durable == 0) and the report carries findings;
//   - a restored image must be of an epoch >= durable (the store may
//     legitimately hold more than was acknowledged — a later seal's data
//     can be on disk even if its rename was not observed) and must match
//     the golden model of that epoch exactly.
//
// The salvage report is returned in all cases so callers can archive it.
// The disk-fault sweep verifies the post-crash state of its in-memory
// stores through exactly this contract.
func CheckDirFS(fsys fault.FS, dir string, durable uint64, golden map[uint64]map[uint64]uint64) (*recovery.SalvageReport, error) {
	// A refusal with nothing acknowledged durable is the expected outcome
	// for a store killed before its first seal, so that branch drops the
	// typed refusal on purpose: it carries no extra signal for the caller.
	out, rep, err := recovery.SalvageDirFS(fsys, dir) //nvlint:allow errlatch refusal with durable==0 is the expected outcome, not a failure
	if err != nil {
		if durable == 0 && rep.NonEmpty() {
			return rep, nil
		}
		return rep, fmt.Errorf("soak: salvage refused but epoch %d was durable: %w", durable, err)
	}
	if rep.RestoredEpoch < durable {
		return rep, fmt.Errorf("soak: restored epoch %d below durable epoch %d", rep.RestoredEpoch, durable)
	}
	g, ok := golden[rep.RestoredEpoch]
	if !ok {
		return rep, fmt.Errorf("soak: restored epoch %d was never written", rep.RestoredEpoch)
	}
	if err := recovery.Verify(out, g); err != nil {
		return rep, fmt.Errorf("soak: restored epoch %d diverges from golden: %w", rep.RestoredEpoch, err)
	}
	return rep, nil
}
