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
	// ModelRandom is the RANDOM/FIFO model (Gelenbe 1973; Gallo et
	// al.): under IRM, RANDOM and FIFO have identical hit ratios
	// q·T/(1+q·T) with T solving the occupancy equation. Use it to
	// place replicas on fleets running the non-LRU cache variants.
	ModelRandom ModelKind = "random"
)

// ModelKinds lists the valid model kinds in presentation order.
func ModelKinds() []ModelKind {
	return []ModelKind{ModelEq1, ModelChe, ModelRandom}
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

// New builds a Predictor. It is the single constructor for all model
// kinds, and reports invalid configuration as an error, so operator
// input (CLI flags, control-plane config) can be validated directly.
func New(cfg ModelConfig) (*Predictor, error) {
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
	case ModelRandom:
		return randomLaw{}
	default:
		return eq1Law{}
	}
}
