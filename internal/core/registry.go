// Knowledge namespaces: one engine per upstream database, owned by a
// Registry.
//
// The paper's engine assumes exactly one hidden database per process. A
// federated deployment fronts many sources from one process, and nothing
// learned from one upstream is valid against another — history tuples,
// dense regions and cached probe answers are all statements about one
// specific corpus. A Namespace is therefore a hard isolation unit: its own
// Knowledge (history arena, 1D/MD dense indexes, query counter), its own
// probe-coalescing layer and fact index, and its own persistence fingerprint.
// Namespaces share exactly one thing, deliberately: the process-wide
// admission gate, because in-flight sessions compete for the same
// goroutines and memory no matter which upstream they probe. Per-namespace
// admission weights let an operator make sessions against an expensive
// upstream count for more of that shared capacity.
//
// Namespace names are constrained to safe path components because the
// service tier keys per-namespace data directories (data-dir/<name>/) by
// them; see internal/service and docs/persistence.md.

package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/hidden"
)

// Registry errors, surfaced by the service tier as 409/404 responses.
var (
	// ErrNamespaceExists is returned by Register for a duplicate name.
	ErrNamespaceExists = errors.New("core: namespace already registered")
	// ErrNamespaceUnknown is returned when resolving a name that is not
	// registered.
	ErrNamespaceUnknown = errors.New("core: unknown namespace")
	// ErrNamespaceDefault is returned by Deregister for the default
	// namespace while other namespaces remain — the default is the
	// back-compat target of un-namespaced requests and may only be removed
	// last.
	ErrNamespaceDefault = errors.New("core: cannot deregister the default namespace while others remain")
)

// MaxNamespaceNameLen bounds namespace name length.
const MaxNamespaceNameLen = 64

// ValidateNamespaceName checks that name is usable as a namespace key: a
// non-empty lowercase identifier ([a-z0-9][a-z0-9._-]*, at most
// MaxNamespaceNameLen bytes) that is safe to use as a single path component
// of a data directory.
func ValidateNamespaceName(name string) error {
	if name == "" {
		return errors.New("core: empty namespace name")
	}
	if len(name) > MaxNamespaceNameLen {
		return fmt.Errorf("core: namespace name longer than %d bytes", MaxNamespaceNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
			(i > 0 && (c == '.' || c == '_' || c == '-'))
		if !ok {
			return fmt.Errorf("core: invalid namespace name %q (want [a-z0-9][a-z0-9._-]*)", name)
		}
	}
	return nil
}

// NamespaceConfig configures one namespace at registration.
type NamespaceConfig struct {
	// Engine configures the namespace's engine. Engine.MaxConcurrentSessions
	// is ignored here: admission capacity is a Registry-level resource (see
	// RegistryOptions).
	Engine Options
	// AdmissionWeight scales what one session against this namespace costs
	// from the registry's shared admission capacity (default 1). Raising it
	// makes sessions on this upstream occupy more of the shared bound.
	AdmissionWeight int
}

// RegistryOptions configure a Registry.
type RegistryOptions struct {
	// MaxConcurrentSessions bounds the total admitted session weight across
	// ALL namespaces (0 = unlimited). Per-namespace AdmissionWeight scales
	// each session's draw on this shared capacity.
	MaxConcurrentSessions int
}

// A Namespace is one registered upstream: a name bound to an isolated
// engine. Values are immutable after Register; resolve them through the
// Registry.
type Namespace struct {
	name   string
	weight int
	engine *Engine
}

// Name returns the namespace's registry key.
func (n *Namespace) Name() string { return n.name }

// Engine returns the namespace's isolated engine.
func (n *Namespace) Engine() *Engine { return n.engine }

// AdmissionWeight returns the per-session multiplier this namespace applies
// to the registry's shared admission capacity.
func (n *Namespace) AdmissionWeight() int { return n.weight }

// Registry owns a set of independent knowledge namespaces and the shared
// admission gate they draw capacity from. The first registered namespace
// becomes the default — the target of un-namespaced legacy requests. All
// methods are safe for concurrent use.
type Registry struct {
	gate *admissionGate

	mu      sync.RWMutex
	byName  map[string]*Namespace
	defName string
}

// NewRegistry builds an empty registry.
func NewRegistry(opts RegistryOptions) *Registry {
	return &Registry{
		gate:   newAdmissionGate(opts.MaxConcurrentSessions),
		byName: make(map[string]*Namespace),
	}
}

// Register creates a new namespace with a fresh engine over db. The first
// registration becomes the default namespace. Returns ErrNamespaceExists
// for a duplicate name.
func (r *Registry) Register(name string, db hidden.Database, cfg NamespaceConfig) (*Namespace, error) {
	if err := ValidateNamespaceName(name); err != nil {
		return nil, err
	}
	weight := cfg.AdmissionWeight
	if weight <= 0 {
		weight = 1
	}
	// Per-namespace engine gates would double-count against the shared
	// registry gate; zero it so the engine's own TryAdmit stays unlimited.
	engOpts := cfg.Engine
	engOpts.MaxConcurrentSessions = 0
	ns := &Namespace{name: name, weight: weight, engine: NewEngine(db, engOpts)}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrNamespaceExists, name)
	}
	if len(r.byName) == 0 {
		r.defName = name
	}
	r.byName[name] = ns
	return ns, nil
}

// Deregister removes a namespace and returns it (so the caller can finalize
// its persistence). The default namespace can only be removed once it is the
// last one left; doing so empties the registry.
func (r *Registry) Deregister(name string) (*Namespace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNamespaceUnknown, name)
	}
	if name == r.defName && len(r.byName) > 1 {
		return nil, fmt.Errorf("%w: %q", ErrNamespaceDefault, name)
	}
	delete(r.byName, name)
	if name == r.defName {
		r.defName = ""
	}
	return ns, nil
}

// Resolve returns the namespace registered under name; the empty name
// resolves to the default namespace.
func (r *Registry) Resolve(name string) (*Namespace, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defName
	}
	ns, ok := r.byName[name]
	return ns, ok
}

// Default returns the default namespace (nil while the registry is empty).
func (r *Registry) Default() *Namespace {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[r.defName]
}

// List returns all namespaces sorted by name.
func (r *Registry) List() []*Namespace {
	r.mu.RLock()
	out := make([]*Namespace, 0, len(r.byName))
	for _, ns := range r.byName {
		out = append(out, ns)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered namespaces.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// TryAdmit reserves weight sessions' worth of the registry's shared
// capacity for namespace ns, scaled by the namespace's AdmissionWeight,
// atomically and without blocking — the same fail-fast contract as
// Engine.TryAdmit. The returned release is idempotent. With an unlimited
// registry (MaxConcurrentSessions 0) admission always succeeds but weight
// is still tracked for SessionsInFlight.
func (r *Registry) TryAdmit(ns *Namespace, weight int) (release func(), ok bool) {
	if weight <= 0 {
		weight = 1
	}
	weight *= ns.weight
	if !r.gate.tryAcquire(weight) {
		return nil, false
	}
	var once sync.Once
	return func() {
		once.Do(func() { r.gate.release(weight) })
	}, true
}

// TryAdmitAcquire reserves weight sessions' worth of shared capacity for
// namespace ns at background (acquirer) priority, scaled by the namespace's
// AdmissionWeight. Unlike TryAdmit it refuses whenever the reservation
// would dip into the reserve kept free for user traffic (a quarter of the
// shared capacity, at least one slot), so the acquirer always loses the
// race for scarce slots. Non-blocking; idempotent release.
func (r *Registry) TryAdmitAcquire(ns *Namespace, weight int) (release func(), ok bool) {
	if weight <= 0 {
		weight = 1
	}
	weight *= ns.weight
	if !r.gate.tryAcquireLow(weight) {
		return nil, false
	}
	var once sync.Once
	return func() {
		once.Do(func() { r.gate.releaseLow(weight) })
	}, true
}

// UserPressure reports whether user traffic is contending for the shared
// admission gate: a user-priority TryAdmit was refused within the given
// window, or in-flight weight has climbed into the low-priority reserve.
// The background acquirer polls this between probes and aborts when it
// fires.
func (r *Registry) UserPressure(window time.Duration) bool {
	return r.gate.userPressure(window)
}

// SessionsInFlight reports the admitted session weight currently held
// across all namespaces.
func (r *Registry) SessionsInFlight() int { return r.gate.inFlight() }

// SessionCapacity returns the shared MaxConcurrentSessions bound
// (0 = unlimited).
func (r *Registry) SessionCapacity() int { return r.gate.cap }
