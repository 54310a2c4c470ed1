package mvc

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
)

// latencyFanApp builds the fan page over a business with per-unit latency
// (the data-tier round trip of Figure 6): 1 root, 8 middle units, 1 sink.
func latencyFanApp(delay time.Duration) *PageService {
	repo := descriptor.NewRepository()
	fanPage(repo, 8)
	return &PageService{Repo: repo, Business: &countingBusiness{delay: delay}}
}

// BenchmarkE6PageComputeLatencySequential is the seed computation shape:
// ten units with a 200µs data-tier round trip each, one after another.
func BenchmarkE6PageComputeLatencySequential(b *testing.B) {
	ps := latencyFanApp(200 * time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.ComputePage(context.Background(), "fan", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// naiveCached reproduces the seed's cache decorator: get / compute / put
// with no coalescing, so K concurrent misses of one key all hit the
// database. It is the comparator for the singleflight benchmark.
type naiveCached struct {
	inner Business
	c     *cache.BeanCache
}

func (n *naiveCached) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	key := beanKey(d.ID, inputs)
	if v, ok := n.c.Get(key); ok {
		return v.(*UnitBean), nil
	}
	bean, err := n.inner.ComputeUnit(context.Background(), d, inputs)
	if err != nil {
		return nil, err
	}
	n.c.Put(key, bean, d.Reads, 0)
	return bean, nil
}

func (n *naiveCached) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	res, err := n.inner.ExecuteOperation(context.Background(), d, inputs)
	if err == nil && res.OK && len(d.Writes) > 0 {
		n.c.Invalidate(d.Writes...)
	}
	return res, err
}

// cpuBusiness burns real CPU per unit computation (a query the database
// must evaluate), so duplicated recomputations cost measurable work.
type cpuBusiness struct {
	computes atomic.Int64
	spin     int
}

func (c *cpuBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	c.computes.Add(1)
	x := uint32(1)
	for i := 0; i < c.spin; i++ {
		x = x*1664525 + 1013904223
	}
	return &UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: []string{"x"}, Nodes: []Node{{Values: MustCells(int64(x))}}}, nil
}

func (c *cpuBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return &OpResult{OK: true}, nil
}

// benchMissStorm measures one recomputation storm per iteration: a write
// invalidates the bean, then 8 concurrent readers request it — Section
// 6's "modification of the database content" path under heavy traffic.
// Without coalescing every reader recomputes; with it exactly one does.
func benchMissStorm(b *testing.B, business Business, inner *cpuBusiness) {
	d := cachedUnit()
	op := writeOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := business.ExecuteOperation(context.Background(), op, nil); err != nil {
			b.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := business.ComputeUnit(context.Background(), d, nil); err != nil {
					b.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	b.ReportMetric(float64(inner.computes.Load())/float64(b.N), "recomputes/storm")
}

// BenchmarkE6MissStormSingleflight: coalesced misses — one database
// recomputation per invalidation regardless of how many readers miss.
func BenchmarkE6MissStormSingleflight(b *testing.B) {
	inner := &cpuBusiness{spin: 50000}
	benchMissStorm(b, NewCachedBusiness(inner, cache.NewBeanCache(64)), inner)
}

// BenchmarkE6MissStormNaive: the seed decorator — every reader that
// misses recomputes.
func BenchmarkE6MissStormNaive(b *testing.B) {
	inner := &cpuBusiness{spin: 50000}
	benchMissStorm(b, &naiveCached{inner: inner, c: cache.NewBeanCache(64)}, inner)
}

// seedBeanKey is the key builder the pooled implementation replaced: an
// intermediate map of formatted strings, a fresh names slice, and a
// strings.Builder — kept as the allocation comparator.
func seedBeanKey(unitID string, inputs map[string]Value) string {
	strs := make(map[string]string, len(inputs))
	for k, v := range inputs {
		strs[k] = FormatParam(v)
	}
	names := make([]string, 0, len(strs))
	for n := range strs {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(unitID)
	for _, n := range names {
		sb.WriteByte('|')
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(strs[n])
	}
	return sb.String()
}

func BenchmarkBeanKeySeed(b *testing.B) {
	inputs := map[string]Value{"oid": int64(7), "parent": int64(3), "q": "keyword"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seedBeanKey("issuesPapers", inputs)
	}
}
