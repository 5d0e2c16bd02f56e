package hmm

import (
	"math"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// GaussianObservation is the classical distance-based observation
// probability of Eq. 2: candidates are the k nearest segments and
// P_O ∝ exp(-0.5·((d-μ)/σ)²).
type GaussianObservation struct {
	Net *roadnet.Network
	// Sigma is the positioning-error standard deviation σ₁ in meters.
	// GPS matchers use tens of meters; cellular needs hundreds.
	Sigma float64
	// Mu is the mean error μ₁ (usually 0).
	Mu float64
}

// Candidates returns the k segments nearest to the point, scored by the
// Gaussian density (constant factor dropped — scores are relative).
func (g *GaussianObservation) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	segs := g.Net.SegmentsNear(ct[i].P, k)
	out := make([]Candidate, 0, len(segs))
	for _, sid := range segs {
		c := Candidate{Seg: sid}
		c.Proj, c.Frac = g.Net.Project(sid, ct[i].P)
		c.Dist = c.Proj.Dist(ct[i].P)
		c.Obs = g.density(c.Dist)
		out = append(out, c)
	}
	return out
}

// Score computes Eq. 2 for arbitrary candidates.
func (g *GaussianObservation) Score(ct traj.CellTrajectory, i int, cands []Candidate) {
	for j := range cands {
		cands[j].Obs = g.density(cands[j].Dist)
	}
}

// density is Eq. 2 of a point-to-road distance.
func (g *GaussianObservation) density(dist float64) float64 {
	sigma := g.Sigma
	if sigma <= 0 {
		sigma = 450
	}
	z := (dist - g.Mu) / sigma
	return math.Exp(-0.5 * z * z)
}

// ExponentialTransition is the classical transition probability of
// Eq. 3: P_T ∝ exp(-|d_great - d_route| / β), penalizing routes much
// longer (or shorter) than the straight-line movement between points.
type ExponentialTransition struct {
	Router *roadnet.Router
	// Beta is the scale σ₂ in meters.
	Beta float64
}

// Score computes Eq. 3. Unreachable movements return ok=false.
func (e *ExponentialTransition) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	dist, ok := e.Router.RouteDist(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	beta := e.Beta
	if beta <= 0 {
		beta = 500
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	return math.Exp(-math.Abs(straight-dist) / beta), true
}
