// Package recovery models checkpoint/rollback recovery on top of the
// engine's architectural checkpoints, turning fault detection into fault
// *handling*: a simulation wrapped by this package periodically captures
// deep-clone checkpoints (core.Engine.Checkpoint), and when the machine
// detects a fault the runner rolls back to the newest checkpoint that
// predates the injection, re-arms injection past the handled fault, and
// re-executes — measuring the work the rollback discarded. Fault campaigns
// aggregate those measurements into recovery latency, lost-work, and
// availability/MTTF estimates (see internal/campaign and internal/stats).
//
// # Determinism and caching
//
// A recovery run is a pure function of the machine, workload, and policy
// interval/depth: checkpoint captures never perturb the engine, rollback
// restores a deep clone, and the re-injection guard advances the fault
// window deterministically (the injector restarts from the trial seed with
// the window lower bound bumped past the handled fault). Two runs of the
// same trial are byte-identical, so recovered trials cache and resume by
// digest exactly like plain ones.
//
// Flush and restore *costs* are deliberately not part of the simulated
// run: Run takes only the interval and depth, and the Trace records raw
// observables (checkpoints taken, rollbacks, lost-work cycles). Cost
// parameters are applied after the fact by the campaign and exploration
// layers, so one cached simulation serves every cost assumption.
package recovery

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/config"
)

// Defaults for policy fields left unset by a mode string.
const (
	// DefaultDepth is the number of retained checkpoints when a mode names
	// an interval without a depth.
	DefaultDepth = 1
	// DefaultFlushCost is the modeled cycles to capture one checkpoint
	// (register/state flush), charged per capture by the cost layers.
	DefaultFlushCost = 8
	// DefaultRestoreCost is the modeled cycles to restore a checkpoint on
	// rollback, charged per rollback by the cost layers.
	DefaultRestoreCost = 64
)

// Policy is one recovery configuration. Interval and Depth shape the
// simulated run (checkpoint cadence and retained history); FlushCost and
// RestoreCost are modeled costs applied after simulation when deriving
// recovery latency and availability. The zero Policy means no recovery
// ("none").
type Policy struct {
	// Interval is the checkpoint cadence in retired instructions; zero
	// disables recovery entirely.
	Interval uint64 `json:"interval,omitempty"`
	// Depth is how many checkpoints are retained for rollback.
	Depth int `json:"depth,omitempty"`
	// FlushCost is the modeled per-capture cost in cycles.
	FlushCost int64 `json:"flushCost,omitempty"`
	// RestoreCost is the modeled per-rollback cost in cycles.
	RestoreCost int64 `json:"restoreCost,omitempty"`
}

// Enabled reports whether the policy actually checkpoints.
func (p Policy) Enabled() bool { return p.Interval > 0 }

// Normalize fills defaulted fields (depth, costs) of an enabled policy and
// canonicalizes a disabled one to the zero Policy, then validates against
// the machine-level bounds shared with the spec grammar.
func (p Policy) Normalize() (Policy, error) {
	if p.Interval == 0 {
		if p.Depth != 0 || p.FlushCost != 0 || p.RestoreCost != 0 {
			return Policy{}, fmt.Errorf("recovery: depth/cost fields without a checkpoint interval")
		}
		return Policy{}, nil
	}
	if p.Interval < config.MinCkptInterval {
		return Policy{}, fmt.Errorf("recovery: checkpoint interval %d below minimum %d", p.Interval, config.MinCkptInterval)
	}
	if p.Depth == 0 {
		p.Depth = DefaultDepth
	}
	if p.Depth < 0 || p.Depth > config.MaxCkptDepth {
		return Policy{}, fmt.Errorf("recovery: checkpoint depth %d out of [1,%d]", p.Depth, config.MaxCkptDepth)
	}
	if p.FlushCost == 0 {
		p.FlushCost = DefaultFlushCost
	}
	if p.RestoreCost == 0 {
		p.RestoreCost = DefaultRestoreCost
	}
	if p.FlushCost < 0 || p.RestoreCost < 0 {
		return Policy{}, fmt.Errorf("recovery: negative cost in %+v", p)
	}
	return p, nil
}

// Apply returns the machine with the policy's checkpoint interval and
// depth folded in (canonically renamed, e.g. "SHREC+ckpt64k+depth2"); a
// disabled policy clears both fields. Costs do not touch the machine —
// they are not simulated state.
func (p Policy) Apply(m config.Machine) config.Machine {
	if !p.Enabled() {
		m.CkptInterval, m.CkptDepth = 0, 0
		return m
	}
	m = m.WithCkptInterval(p.Interval)
	if p.Depth > 0 && p.Depth != DefaultDepth {
		m = m.WithCkptDepth(p.Depth)
	} else {
		m.CkptDepth = 0
	}
	return m
}

// String renders the canonical mode string: "none" for a disabled policy,
// otherwise "ckpt@<interval>" with "+depth<n>"/"+flush<n>"/"+restore<n>"
// for fields that differ from the defaults. The interval renders with the
// largest exact 1024-multiple suffix ("ckpt@64k"), matching the machine
// spec grammar. ParseMode inverts String for every normalized policy.
func (p Policy) String() string {
	if !p.Enabled() {
		return "none"
	}
	var b strings.Builder
	b.WriteString("ckpt@")
	b.WriteString(renderInterval(p.Interval))
	if p.Depth > 0 && p.Depth != DefaultDepth {
		fmt.Fprintf(&b, "+depth%d", p.Depth)
	}
	if p.FlushCost > 0 && p.FlushCost != DefaultFlushCost {
		fmt.Fprintf(&b, "+flush%d", p.FlushCost)
	}
	if p.RestoreCost > 0 && p.RestoreCost != DefaultRestoreCost {
		fmt.Fprintf(&b, "+restore%d", p.RestoreCost)
	}
	return b.String()
}

func renderInterval(n uint64) string {
	switch {
	case n%(1024*1024) == 0:
		return strconv.FormatUint(n/(1024*1024), 10) + "m"
	case n%1024 == 0:
		return strconv.FormatUint(n/1024, 10) + "k"
	}
	return strconv.FormatUint(n, 10)
}

// ParseMode parses a recovery mode string: "none" (or "") disables
// recovery; "ckpt@<interval>" enables it, with the interval taking k/m
// suffixes (1024 multiples) and optional "+depth<n>", "+flush<cycles>",
// and "+restore<cycles>" modifiers in any order, at most once each.
// Unspecified fields take the package defaults. The result is normalized:
// ParseMode(p.String()) == p for every policy Normalize accepts.
func ParseMode(mode string) (Policy, error) {
	s := strings.ToLower(strings.TrimSpace(mode))
	if s == "" || s == "none" {
		return Policy{}, nil
	}
	rest, ok := strings.CutPrefix(s, "ckpt@")
	if !ok {
		return Policy{}, fmt.Errorf("recovery: unknown mode %q (want \"none\" or \"ckpt@<interval>[+depth<n>][+flush<c>][+restore<c>]\")", mode)
	}
	var p Policy
	cut := strings.IndexByte(rest, '+')
	if cut < 0 {
		cut = len(rest)
	}
	iv, err := parseInterval(rest[:cut])
	if err != nil {
		return Policy{}, fmt.Errorf("recovery: mode %q: %v", mode, err)
	}
	p.Interval = iv
	rest = rest[cut:]
	seen := map[string]bool{}
	for rest != "" {
		rest = rest[1:] // leading '+'
		end := strings.IndexByte(rest, '+')
		if end < 0 {
			end = len(rest)
		}
		tok := rest[:end]
		rest = rest[end:]
		var key, val string
		for _, k := range []string{"depth", "flush", "restore"} {
			if v, ok := strings.CutPrefix(tok, k); ok {
				key, val = k, v
				break
			}
		}
		if key == "" {
			return Policy{}, fmt.Errorf("recovery: mode %q: unknown modifier %q", mode, tok)
		}
		if seen[key] {
			return Policy{}, fmt.Errorf("recovery: mode %q: duplicate %q modifier", mode, key)
		}
		seen[key] = true
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return Policy{}, fmt.Errorf("recovery: mode %q: bad %q value %q", mode, key, val)
		}
		switch key {
		case "depth":
			p.Depth = int(n)
		case "flush":
			p.FlushCost = n
		case "restore":
			p.RestoreCost = n
		}
	}
	return p.Normalize()
}

func parseInterval(s string) (uint64, error) {
	mul := uint64(1)
	switch {
	case strings.HasSuffix(s, "m"):
		s, mul = s[:len(s)-1], 1024*1024
	case strings.HasSuffix(s, "k"):
		s, mul = s[:len(s)-1], 1024
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 || n > math.MaxUint64/mul {
		return 0, fmt.Errorf("bad checkpoint interval %q", s)
	}
	return n * mul, nil
}
