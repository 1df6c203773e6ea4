package sim

import (
	"fmt"
	"slices"

	"sbgp/internal/asgraph"
)

// DeriveBreaks derives the SecP tie-break flags from a secure bitmap the
// way the simulator does: secure ISPs and CPs always break ties on
// security, secure stubs only when stubsBreakTies (Section 6.7).
func DeriveBreaks(g *asgraph.Graph, secure []bool, stubsBreakTies bool) []bool {
	breaks := make([]bool, len(secure))
	for i, s := range secure {
		if s {
			breaks[i] = !g.IsStub(int32(i)) || stubsBreakTies
		}
	}
	return breaks
}

// stateFrom builds a deployState from a secure bitmap, deriving the SecP
// flags: secure ISPs and CPs always break ties, secure stubs only when
// stubsBreakTies.
func stateFrom(g *asgraph.Graph, secure []bool, stubsBreakTies bool) *deployState {
	st := newDeployState(g.N())
	for i, s := range secure {
		if s {
			st.set(g, int32(i), stubsBreakTies)
		}
	}
	return st
}

// Utilities computes every ISP's utility in an arbitrary deployment
// state under cfg's utility model. Entries for non-ISPs are zero.
// It is exported for analyses outside the round loop (gadget studies,
// turn-off scans, figure harnesses).
func Utilities(g *asgraph.Graph, secure []bool, cfg Config) ([]float64, error) {
	s, err := New(g, cfg)
	if err != nil {
		return nil, err
	}
	if len(secure) != g.N() {
		return nil, fmt.Errorf("sim: secure bitmap has %d entries for %d ASes", len(secure), g.N())
	}
	st := stateFrom(g, secure, s.cfg.StubsBreakTies)
	uBase, _, _, err := s.computeRound(st, nil)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), uBase...), nil
}

// RoundUtilities computes one round of the utility engine in an
// arbitrary state: every ISP's base utility and — when projected is set
// — the projected utility of every candidate under the configured
// model's candidate rule (uProj[i] = uBase[i] for non-candidates).
// stats is non-nil only when Config.RecordStats is set.
//
// The returned slices are owned by the Sim and overwritten by its next
// round computation; like all Sim methods it must not be called
// concurrently.
func (s *Sim) RoundUtilities(secure []bool, projected bool) (uBase, uProj []float64, stats *RoundStats, err error) {
	if len(secure) != s.g.N() {
		return nil, nil, nil, fmt.Errorf("sim: secure bitmap has %d entries for %d ASes", len(secure), s.g.N())
	}
	if s.scratch == nil {
		s.scratch = newDeployState(s.g.N())
	}
	st := s.scratch
	for i, sec := range secure {
		if sec {
			st.set(s.g, int32(i), s.cfg.StubsBreakTies)
		} else {
			st.unset(int32(i))
		}
	}
	var cand []bool
	if projected {
		cand = s.candidates(st)
	}
	return s.computeRound(st, cand)
}

// EvaluateFlip returns ISP n's utility in the given state and its
// projected utility in the state where n alone flips its deployment
// action — the two sides of update rule (3).
func EvaluateFlip(g *asgraph.Graph, secure []bool, cfg Config, n int32) (base, proj float64, err error) {
	s, err := New(g, cfg)
	if err != nil {
		return 0, 0, err
	}
	if len(secure) != g.N() {
		return 0, 0, fmt.Errorf("sim: secure bitmap has %d entries for %d ASes", len(secure), g.N())
	}
	if n < 0 || int(n) >= g.N() {
		return 0, 0, fmt.Errorf("sim: node %d out of range", n)
	}
	st := stateFrom(g, secure, s.cfg.StubsBreakTies)
	cand := make([]bool, g.N())
	cand[n] = true
	uBase, uProj, _, err := s.computeRound(st, cand)
	if err != nil {
		return 0, 0, err
	}
	return uBase[n], uProj[n], nil
}

// EvaluateFlipPerDest decomposes EvaluateFlip by destination: it returns
// node n's per-destination utility contributions in the current state
// and in the flipped state. This powers the Section 7.3 analysis of ISPs
// that would profit from turning S*BGP off for specific destinations.
func EvaluateFlipPerDest(g *asgraph.Graph, secure []bool, cfg Config, n int32) (base, proj []float64, err error) {
	s, err := New(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(secure) != g.N() {
		return nil, nil, fmt.Errorf("sim: secure bitmap has %d entries for %d ASes", len(secure), g.N())
	}
	if n < 0 || int(n) >= g.N() {
		return nil, nil, fmt.Errorf("sim: node %d out of range", n)
	}
	cfg = s.cfg
	st := stateFrom(g, secure, cfg.StubsBreakTies)
	nn := g.N()
	base = make([]float64, nn)
	proj = make([]float64, nn)
	weights := make([]float64, nn)
	for i := int32(0); i < int32(nn); i++ {
		weights[i] = g.Weight(i)
	}
	wk := newWorker(g, nn)
	rc := &roundCtx{st: st, cfg: &cfg, noSecure: !slices.Contains(st.secure, true)}
	for d := int32(0); d < int32(nn); d++ {
		stc := wk.ws.PrepareDest(d, cfg.Tiebreaker)
		wk.baseTree.Clear(nn)
		wk.projTree.Clear(nn)
		wk.ws.ResolveInto(&wk.baseTree, stc, st.secure, st.breaks, nil, nil, cfg.Tiebreaker)
		accumulate(stc, &wk.baseTree, weights, wk.accBase, wk.incBase)
		base[d] = wk.contribution(cfg.Model, stc, wk.accBase, wk.incBase, weights, n)

		anySecure := false
		for _, i := range stc.Order() {
			if wk.baseTree.Secure[i] {
				anySecure = true
				break
			}
		}
		flips := wk.flipSetFor(st, &cfg, n)
		if !wk.flipCanChangeTree(stc, &wk.baseTree, rc, n, d, flips, anySecure) {
			wk.clearFlips(flips)
			proj[d] = base[d]
			continue
		}
		wk.ws.ResolveSuffixInto(&wk.projTree, &wk.baseTree, stc,
			st.secure, st.breaks, wk.flipMark, wk.flipBreaks, flips, cfg.Tiebreaker)
		wk.clearFlips(flips)
		accumulate(stc, &wk.projTree, weights, wk.accProj, wk.incProj)
		proj[d] = wk.contribution(cfg.Model, stc, wk.accProj, wk.incProj, weights, n)
	}
	return base, proj, nil
}
