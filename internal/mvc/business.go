package mvc

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/rdb"
)

// Business is the business tier of Figure 4: it computes unit content
// and executes operations. The local implementation runs inside the
// "servlet container"; internal/ejb provides a remote implementation
// living in the application server (Figure 6), and CachedBusiness wraps
// either with the Section 6 bean cache.
//
// Every call carries the request context: the controller derives a
// per-request deadline and each tier below (page service, bean cache,
// remote stub) observes it, so a hung container can never wedge a
// servlet worker past the request budget.
type Business interface {
	// ComputeUnit produces the unit bean for a descriptor and inputs.
	ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error)
	// ExecuteOperation runs an operation and reports OK/KO.
	ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error)
}

// LocalBusiness executes services in-process against the database.
type LocalBusiness struct {
	DB *rdb.DB
	// Units maps unit kind -> generic service.
	Units map[string]UnitService
	// Operations maps operation kind -> generic service.
	Operations map[string]OperationService
	// Custom maps component names (descriptor Service attribute) to
	// user-supplied services that override the generic ones (Section 6:
	// "this component can be completely overridden by a user-supplied
	// one, which may implement any required optimization policy").
	Custom map[string]UnitService
	// CustomOps is the operation counterpart of Custom.
	CustomOps map[string]OperationService
}

// NewLocalBusiness wires the core generic services over db.
func NewLocalBusiness(db *rdb.DB) *LocalBusiness {
	return &LocalBusiness{
		DB:         db,
		Units:      CoreUnitServices(),
		Operations: CoreOperationServices(),
		Custom:     map[string]UnitService{},
		CustomOps:  map[string]OperationService{},
	}
}

// RegisterUnitService installs (or replaces) the generic service for a
// unit kind — how plug-in units attach their runtime component.
func (b *LocalBusiness) RegisterUnitService(kind string, s UnitService) {
	b.Units[kind] = s
}

// ComputeUnit implements Business. Unit services run against the
// in-process database and do not block, so the context is only checked
// at entry: a request past its deadline stops before touching the DB.
func (b *LocalBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.Service != "" {
		if s, ok := b.Custom[d.Service]; ok {
			return s.Compute(ctx, b.DB, d, inputs)
		}
		return nil, fmt.Errorf("mvc: unit %s names unknown custom component %q", d.ID, d.Service)
	}
	s, ok := b.Units[d.Kind]
	if !ok {
		return nil, fmt.Errorf("mvc: no generic service for unit kind %q", d.Kind)
	}
	return s.Compute(ctx, b.DB, d, inputs)
}

// ExecuteOperation implements Business.
func (b *LocalBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.Service != "" {
		if s, ok := b.CustomOps[d.Service]; ok {
			return s.Execute(ctx, b.DB, d, inputs)
		}
		return nil, fmt.Errorf("mvc: operation %s names unknown custom component %q", d.ID, d.Service)
	}
	s, ok := b.Operations[d.Kind]
	if !ok {
		return nil, fmt.Errorf("mvc: no generic service for operation kind %q", d.Kind)
	}
	return s.Execute(ctx, b.DB, d, inputs)
}

// CachedBusiness decorates a Business with the bean cache: unit beans of
// cache-tagged descriptors are reused across requests, and operations
// automatically invalidate the beans whose Reads intersect their Writes.
// Concurrent misses of the same key are coalesced so exactly one
// computation hits the database.
type CachedBusiness struct {
	Inner Business
	Cache *cache.BeanCache

	// MaxStaleness bounds degraded-mode serving: when the inner business
	// fails (container down, deadline expired), a TTL-expired bean no
	// older than this may still be served instead of an error page —
	// Section 6's cache acting as the last line of defence, mirroring the
	// edge tier's stale-while-revalidate at the bean level. Invalidation
	// removes beans outright, so degraded mode can only serve data aged
	// past its TTL, never data written over by an operation. Zero
	// disables degraded serving.
	MaxStaleness time.Duration
}

// NewCachedBusiness wraps inner with the bean cache.
func NewCachedBusiness(inner Business, c *cache.BeanCache) *CachedBusiness {
	return &CachedBusiness{Inner: inner, Cache: c}
}

// ComputeUnit implements Business as a batch of one: the hit / join /
// lead protocol lives once, in ComputeUnits (batch.go).
func (cb *CachedBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	r := cb.ComputeUnits(ctx, []UnitCall{{D: d, Inputs: inputs}})[0]
	return r.Bean, r.Err
}

// degraded is the fallback path of a failed cached computation: if
// degraded serving is enabled and a bean no older than MaxStaleness is
// still retained (TTL-expired beans are kept, invalidated ones are not),
// serve it and swallow the failure; otherwise surface the original error.
func (cb *CachedBusiness) degraded(key string, err error) (*UnitBean, error) {
	if cb.MaxStaleness > 0 {
		if v, _, ok := cb.Cache.GetStale(key, cb.MaxStaleness); ok {
			return v.(*UnitBean), nil
		}
	}
	return nil, err
}

// ExecuteOperation implements Business, invalidating dependent beans on
// success — "the implementation of operations automatically invalidates
// the affected cached objects" (Section 6). The invalidation also ends
// every fill in progress: requests arriving after the write start a
// fresh computation instead of joining a pre-write one, and a leader
// still computing from the written tags has its bean refused by
// PutIfFresh. Operations are never retried and never degrade: a write either
// happened or its error surfaces.
func (cb *CachedBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	res, err := cb.Inner.ExecuteOperation(ctx, d, inputs)
	if err != nil {
		return nil, err
	}
	if res.OK && len(d.Writes) > 0 {
		cb.Cache.Invalidate(d.Writes...)
	}
	return res, nil
}

// NotifyingBusiness decorates a Business with a write-event bus: after
// every successful operation it publishes the operation's written
// dependency tags. The edge tier subscribes to extend Section 6's
// model-driven invalidation beyond the bean cache — one write event
// purges the dependency closure at every cache level.
type NotifyingBusiness struct {
	Inner Business
	// OnWrite receives the tags of each successful operation: its Writes
	// plus the object tags of the rows it changed (WriteTags).
	OnWrite func(tags []string)
}

// ComputeUnit implements Business by delegation.
func (nb *NotifyingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	return nb.Inner.ComputeUnit(ctx, d, inputs)
}

// ExecuteOperation implements Business, publishing the written tags on
// success. The inner business (CachedBusiness) has already invalidated
// its own level when the event fires, so subscribers refilling from the
// origin observe post-write state.
func (nb *NotifyingBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	res, err := nb.Inner.ExecuteOperation(ctx, d, inputs)
	if err != nil {
		return nil, err
	}
	if res.OK && nb.OnWrite != nil {
		if tags := WriteTags(d, inputs); len(tags) > 0 {
			nb.OnWrite(tags)
		}
	}
	return res, nil
}

// beanKeyBuilder assembles bean cache keys without the intermediate
// map[string]string and per-value strings of the naive implementation;
// instances are pooled. The output matches cache.Key byte for byte.
type beanKeyBuilder struct {
	names []string
	buf   []byte
}

var beanKeyPool = sync.Pool{New: func() interface{} { return new(beanKeyBuilder) }}

// beanKey builds the cache key from the unit ID and typed inputs.
func beanKey(unitID string, inputs map[string]Value) string {
	if len(inputs) == 0 {
		return unitID
	}
	kb := beanKeyPool.Get().(*beanKeyBuilder)
	kb.names = kb.names[:0]
	for n := range inputs {
		kb.names = append(kb.names, n)
	}
	slices.Sort(kb.names)
	kb.buf = append(kb.buf[:0], unitID...)
	for _, n := range kb.names {
		kb.buf = append(kb.buf, '|')
		kb.buf = append(kb.buf, n...)
		kb.buf = append(kb.buf, '=')
		kb.buf = rdb.AppendValue(kb.buf, inputs[n])
	}
	key := string(kb.buf)
	beanKeyPool.Put(kb)
	return key
}
