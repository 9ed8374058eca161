package wrangle

import (
	"fmt"
)

// Domain selects which built-in target schema and ontology a session
// wrangles towards.
type Domain string

// Supported domains.
const (
	// Products is the e-commerce domain of the paper's Examples 1-2
	// (target schema sku/name/brand/category/price/rating/updated).
	Products Domain = "products"
	// Locations is the business-locations domain of Example 3.
	Locations Domain = "locations"
)

// settings accumulates option values until New resolves them.
type settings struct {
	domain Domain

	userCtx *UserContext // WithUserContext / WithAHPWeights (last wins)

	taxonomy    *Taxonomy
	taxonomySet bool

	master    *Table
	masterKey string

	sourceBudget    int
	sourceBudgetSet bool

	feedbackBudget    float64
	feedbackBudgetSet bool

	provider Provider

	parallelism int

	integrationShards int

	retainVersions int

	watchBuffer int

	durableDir      string
	durableFsync    FsyncPolicy
	durableFsyncSet bool

	metrics bool

	seed         int64
	synthSources int
}

// Option configures a session at construction time. Options validate
// eagerly: New returns the first option error.
type Option func(*settings) error

// WithDomain selects the wrangling domain (Products or Locations).
// Unknown domains are rejected.
func WithDomain(d Domain) Option {
	return func(s *settings) error {
		switch d {
		case Products, Locations:
			s.domain = d
			return nil
		default:
			return fmt.Errorf("unknown domain %q (want %q or %q)", d, Products, Locations)
		}
	}
}

// WithUserContext installs an explicit user context (criterion weights
// plus budgets). Overrides any earlier WithAHPWeights.
func WithUserContext(uc *UserContext) Option {
	return func(s *settings) error {
		if uc == nil {
			return fmt.Errorf("nil user context")
		}
		s.userCtx = uc
		return nil
	}
}

// WithAHPWeights elicits the user context from a pairwise AHP comparison
// matrix. The matrix's consistency ratio is validated (CR <= 0.1), so an
// incoherent set of judgements fails at New rather than silently skewing
// source selection. Overrides any earlier WithUserContext.
func WithAHPWeights(name string, a *AHP) Option {
	return func(s *settings) error {
		if a == nil {
			return fmt.Errorf("nil AHP matrix")
		}
		uc, err := BuildUserContext(name, a, 0, 0)
		if err != nil {
			return err
		}
		s.userCtx = uc
		return nil
	}
}

// WithTaxonomy installs the domain ontology the matcher and extractors
// consult. By default a session uses the built-in taxonomy of its domain;
// passing nil is an error (use the default instead of disabling it).
func WithTaxonomy(t *Taxonomy) Option {
	return func(s *settings) error {
		if t == nil {
			return fmt.Errorf("nil taxonomy")
		}
		s.taxonomy = t
		s.taxonomySet = true
		return nil
	}
}

// WithMasterData installs the caller's own trusted table (e.g. a product
// catalogue) as master data, keyed by the named column. Master data
// powers instance-based matching, unit repair and accuracy scoring.
func WithMasterData(t *Table, key string) Option {
	return func(s *settings) error {
		if t == nil {
			return fmt.Errorf("nil master data table")
		}
		if key == "" {
			return fmt.Errorf("empty master data key column")
		}
		if t.Schema().Index(key) < 0 {
			return fmt.Errorf("master data has no column %q", key)
		}
		s.master = t
		s.masterKey = key
		return nil
	}
}

// WithSourceBudget bounds how many sources the planner may select (the
// "budget for accessing sources", §4.1). Zero means unbounded; negative
// budgets are rejected.
func WithSourceBudget(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("negative source budget %d", n)
		}
		s.sourceBudget = n
		s.sourceBudgetSet = true
		return nil
	}
}

// WithFeedbackBudget bounds pay-as-you-go feedback spending. Zero means
// unbounded; negative budgets are rejected.
func WithFeedbackBudget(units float64) Option {
	return func(s *settings) error {
		if units < 0 {
			return fmt.Errorf("negative feedback budget %g", units)
		}
		s.feedbackBudget = units
		s.feedbackBudgetSet = true
		return nil
	}
}

// WithSeed sets the deterministic seed for the default synthetic source
// universe (ignored when WithProvider is given).
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithSyntheticSources sets how many sources the default synthetic
// universe generates (ignored when WithProvider is given).
func WithSyntheticSources(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("synthetic source count must be positive, got %d", n)
		}
		s.synthSources = n
		return nil
	}
}

// WithParallelism bounds how many workers the session's engine uses
// (n >= 1). Sources are independent until the selection barrier, so
// their extract/match/map chains fan out over n workers; results merge
// in stable provider order. The same bound reaches the integration
// tail's trust stage: the TruthFinder fixpoint partitions its claim set
// into trust-coupled connected components and iterates them on n
// workers, merging per-component trust in sorted component order. Both
// fan-outs make a parallel run byte-identical to a sequential one at
// any n. By default a session uses one worker per CPU.
func WithParallelism(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("parallelism must be at least 1, got %d", n)
		}
		s.parallelism = n
		return nil
	}
}

// WithIntegrationShards splits the integration tail — entity resolution
// and fusion over the union of all selected sources — into n disjoint
// blocking shards that run as parallel engine tasks and merge
// deterministically. Results are byte-identical at every shard count;
// only the speed changes. Every session memoizes its last integrated
// tail, and every Refresh (and duplicate feedback) diffs the rebuilt
// union against it, re-plans incrementally and re-resolves only the
// shards the delta touched (see ReactStats.ShardsResolved / ShardsReused
// and the ReactStats.Stages split) — untouched shards keep their
// clusters by reference. Trust is re-estimated over all claims and the
// fuse re-runs under it in n entity ranges; every entity that fuses to the same record
// keeps its predecessor's table record all the way into the published
// snapshot version, which shares it. n must be at least 1. Without this option
// the tail runs at one shard and every version is published to watchers
// as a full change; with it, versions carry record deltas
// (ChangeSet). Useful shard counts track the worker bound
// (WithParallelism) — more shards than workers only adds merge
// bookkeeping.
func WithIntegrationShards(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("integration shards must be at least 1, got %d", n)
		}
		s.integrationShards = n
		return nil
	}
}

// WithStreamingRefresh is accepted and does nothing.
//
// Deprecated: every session's tail streams (see WithIntegrationShards).
func WithStreamingRefresh() Option {
	return func(*settings) error { return nil }
}

// WithRetainVersions bounds how many committed snapshot versions the
// session's serving store keeps (n >= 1; the default is a small
// window). Every successful Run / ApplyFeedback / Refresh
// publishes a copy-on-write version that Session.View reads lock-free;
// retention caps the store's memory at n versions, and View.At can reach
// back exactly that far.
func WithRetainVersions(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("retain versions must be at least 1, got %d", n)
		}
		s.retainVersions = n
		return nil
	}
}

// WithSequential forces one-source-at-a-time execution — equivalent to
// WithParallelism(1). Useful for debugging, for profiling a single
// source's cost, or on machines where the wrangle must not saturate
// every core.
func WithSequential() Option {
	return WithParallelism(1)
}

// WithProvider points the session at an explicit source backend — files
// on disk (FromDir, FromFiles), a synthetic universe (Synthetic), or any
// custom Provider implementation.
func WithProvider(p Provider) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("nil provider")
		}
		s.provider = p
		return nil
	}
}
