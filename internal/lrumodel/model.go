package lrumodel

import (
	"fmt"
	"strings"
)

// ModelKind names one of the analytical hit-ratio models the package
// implements. All kinds share the same quantized-memoization machinery
// and differ only in the replacement-policy mathematics (how the
// characteristic time is derived from the slot count, and how the
// per-site hit ratio follows from it).
type ModelKind string

const (
	// ModelEq1 is the paper's own model: Equation (2) for K, Equation
	// (1) for the hit ratio. The default everywhere.
	ModelEq1 ModelKind = "eq1"
	// ModelChe is Che's characteristic-time approximation (Che, Tung,
	// Wang 2002): T_C by bisection on the occupancy equation, the same
	// Equation (1) structural form with T_C in place of K.
	ModelChe ModelKind = "che"
	// ModelClosedForm is the Laoutaris-style closed-form LRU model: an
	// O(1) integral form of Equation (2) and a head-exact/quadrature
	// evaluation of Equation (1) that stays O(1) in the catalog size.
	ModelClosedForm ModelKind = "closedform"
	// ModelRandom is the RANDOM/FIFO model (Gelenbe 1973; Gallo et
	// al.): under IRM, RANDOM and FIFO have identical hit ratios
	// q·T/(1+q·T) with T solving the occupancy equation. Use it to
	// place replicas on fleets running the non-LRU cache variants.
	ModelRandom ModelKind = "random"
)

// ModelKinds lists the valid model kinds in presentation order.
func ModelKinds() []ModelKind {
	return []ModelKind{ModelEq1, ModelChe, ModelClosedForm, ModelRandom}
}

// ParseModelKind validates a user-supplied model name. The empty string
// selects the default (eq1). The error message lists the valid names,
// so CLIs can surface it directly from flag validation.
func ParseModelKind(s string) (ModelKind, error) {
	if s == "" {
		return ModelEq1, nil
	}
	for _, k := range ModelKinds() {
		if ModelKind(s) == k {
			return k, nil
		}
	}
	names := make([]string, 0, len(ModelKinds()))
	for _, k := range ModelKinds() {
		names = append(names, string(k))
	}
	return "", fmt.Errorf("lrumodel: unknown model %q (valid: %s)", s, strings.Join(names, ", "))
}

// Model is the hit-ratio surface the placement stack consumes. It is
// the method set the hybrid algorithm and the controller actually use,
// extracted from *Predictor so that any of the ModelKinds (or a test
// double) can stand behind it. Every method but SiteHitRatioCondUpper
// returns the model's value; that one returns a proven upper bound on
// SiteHitRatioCond, for screening candidates cheaply.
//
// Implementations are not safe for concurrent use unless documented
// otherwise; the placement engines keep one Model per server, and fan a
// batch's evaluations out through SiteHitRatiosCond.
type Model interface {
	// Kind identifies the underlying model.
	Kind() ModelKind
	// B converts a cache size in bytes to buffer slots (B ≈ c/ō, §3.2).
	B(cacheBytes int64) int
	// K returns the model's characteristic time for the cache size:
	// Equation (2)'s K, Che's T_C, or the RANDOM/FIFO T. 0 for an
	// empty cache, +Inf when every object fits.
	K(cacheBytes int64) float64
	// TotalObjects returns Σ_j Objects, frozen at construction.
	TotalObjects() int
	// SitePopularity returns the frozen normalized popularity p_j.
	SitePopularity(j int) float64
	// SiteHitRatio returns site j's λ-adjusted hit ratio with every
	// site visible to the cache.
	SiteHitRatio(j int, cacheBytes int64) float64
	// SiteHitRatioCond is SiteHitRatio with site j's popularity
	// renormalized over the visible mass (§4's conditional form).
	SiteHitRatioCond(j int, visibleMass float64, cacheBytes int64) float64
	// SiteHitRatioCondUpper is never below SiteHitRatioCond at the same
	// arguments and costs O(log L) instead of O(L) under eq1, che and
	// random — a Jensen bound over blocks of Zipf ranks; the closed form
	// returns its value. It writes no hit-ratio memo.
	SiteHitRatioCondUpper(j int, visibleMass float64, cacheBytes int64) float64
	// SiteHitRatiosCond is SiteHitRatioCond for a batch of distinct
	// sites sharing one visible mass and cache size, stored in out[j]
	// for every j of sites, bit for bit the values and memo entries of
	// the calls made one by one. The batch's Equation (1) misses are
	// evaluated under fan (nil: inline); this is the only method that
	// may run work concurrently, and only inside fan.
	SiteHitRatiosCond(sites []int, visibleMass float64, cacheBytes int64, out []float64, fan Fan)
	// HitRatios returns the λ-adjusted hit ratio of every site.
	HitRatios(cacheBytes int64) []float64
	// HitRatiosCond restricts HitRatios to the visible sites; entries
	// for invisible (replicated) sites are 0. It and HitRatios are
	// serial SiteHitRatiosCond batches.
	HitRatiosCond(visible []bool, cacheBytes int64) []float64
	// OverallHitRatio returns the request-weighted Σ p_j·h_j.
	OverallHitRatio(cacheBytes int64) float64
}

// ModelConfig configures New. Weights[j] is the server's request rate
// for site j (any positive scale; normalized internally).
type ModelConfig struct {
	// Kind selects the model; empty means ModelEq1.
	Kind ModelKind
	// Specs is the site catalog.
	Specs []SiteSpec
	// Weights is the server's per-site request-rate vector.
	Weights []float64
	// AvgObjectBytes is ō, the average object size.
	AvgObjectBytes float64
	// MaxCacheBytes bounds the cache sizes that will ever be queried.
	MaxCacheBytes int64
	// Shared optionally attaches a cross-model memo table. Entries are
	// keyed by model kind as well as grid point, so models of
	// different kinds can share one table without collisions.
	Shared *SharedTable
}

// New builds a Model. It is the single constructor for all model
// kinds, and reports invalid configuration as an error, so operator
// input (CLI flags, control-plane config) can be validated directly.
func New(cfg ModelConfig) (Model, error) {
	kind, err := ParseModelKind(string(cfg.Kind))
	if err != nil {
		return nil, err
	}
	return newPredictor(kind, cfg.Specs, cfg.Weights, cfg.AvgObjectBytes, cfg.MaxCacheBytes, cfg.Shared)
}

// lawFor maps a validated kind to its replacement-policy mathematics.
func lawFor(kind ModelKind) law {
	switch kind {
	case ModelChe:
		return cheLaw{}
	case ModelClosedForm:
		return closedformLaw{}
	case ModelRandom:
		return randomLaw{}
	default:
		return eq1Law{}
	}
}
