package serve

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"graphabcd"
)

// Cache is the LRU result cache, and the one owner of finished jobs'
// values: a job keeps only its stats and its key, and reads its values
// back from here (Manager.Values). Keys carry the graph's pool epoch, so
// an evict/reload cycle (or a future snapshot refresh) invalidates every
// cached result for that graph without any explicit flush. Cached
// *JobResult values are shared — readers must not mutate them.
type Cache struct {
	mu      sync.Mutex
	cap     int
	shared  bool // Get may answer a job from another job's result
	entries map[string]*list.Element
	ll      *list.List

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheItem struct {
	key string
	res *graphabcd.JobResult
}

// NewCache returns an LRU cache holding up to capacity results. A
// capacity <= 0 turns off cross-job hits — every Get misses — but the
// cache still retains the default number of results, so no setting loses
// a job's values before its own client can read them.
func NewCache(capacity int) *Cache {
	c := &Cache{cap: capacity, shared: true, entries: make(map[string]*list.Element), ll: list.New()}
	if capacity <= 0 {
		c.cap, c.shared = defaultCacheEntries, false
	}
	return c
}

// Get answers a job from the result cached under key, if any, counting a
// hit or a miss and refreshing the entry.
func (c *Cache) Get(key string) (*graphabcd.JobResult, bool) {
	if !c.shared {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheItem).res, true
}

// Values returns the result stored under key for the job that finished
// with it. Reading a job's own values is not a hit: it counts nothing and
// does not refresh the entry.
func (c *Cache) Values(key string) (*graphabcd.JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheItem).res, true
}

// Put stores res under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) Put(key string, res *graphabcd.JobResult) {
	if res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheItem).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheItem).key)
	}
}

// Stats returns cumulative hit/miss counts and the current entry count.
func (c *Cache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), n
}

// cacheKey builds the result-cache key: graph name at its pool epoch, the
// canonical algorithm name, and an FNV-64a hash of the canonical parameter
// string. Two requests that differ only in parameter spelling or ordering
// hash identically because canonicalParams normalizes first.
func cacheKey(graph string, epoch uint64, algorithm, params string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(params))
	return fmt.Sprintf("%s@%d/%s/%016x", graph, epoch, algorithm, h.Sum64())
}

// canonicalParams serializes the result-relevant request fields in a fixed
// order. Fields that cannot change the result (durable, tenant) are
// excluded; engine knobs that can change it on non-convergent workloads
// (max_epochs, epsilon, block_size, cluster shape) are included.
func canonicalParams(req *JobRequest) string {
	var b strings.Builder
	if req.Source != nil {
		b.WriteString(fmt.Sprintf("src=%d;", *req.Source))
	}
	if len(req.Seeds) > 0 {
		seeds := append([]uint32(nil), req.Seeds...)
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		b.WriteString("seeds=")
		for i, s := range seeds {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(uint64(s), 10))
		}
		b.WriteByte(';')
	}
	if req.Damping != 0 {
		b.WriteString(fmt.Sprintf("damp=%g;", req.Damping))
	}
	if req.MaxEpochs != 0 {
		b.WriteString(fmt.Sprintf("me=%g;", req.MaxEpochs))
	}
	if req.Epsilon != nil {
		b.WriteString(fmt.Sprintf("eps=%g;", *req.Epsilon))
	}
	if req.BlockSize != 0 {
		b.WriteString(fmt.Sprintf("bs=%d;", req.BlockSize))
	}
	if req.Cluster != nil {
		b.WriteString(fmt.Sprintf("cluster=%dx%d@%d;", req.Cluster.Nodes, req.Cluster.WorkersPerNode, req.Cluster.BlockSize))
	}
	return b.String()
}
