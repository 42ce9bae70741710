// Package cache models the physically-tagged cache hierarchy: L1 I/D,
// unified L2 and optional L3, with configurable size, associativity,
// latency, line size, MSHR-style miss buffers, K8-style L1 banking, an
// optional next-line prefetcher, and pluggable multi-core coherence
// ("instant visibility" by default, MOESI as the detailed model —
// mirroring the paper's §4.4).
//
// The hierarchy is timing-only: data values always come from the
// physical memory image (the integrated-simulation design), so the
// caches track presence, state and latency rather than bytes.
package cache

import "fmt"

// MESI/MOESI line states.
type State uint8

// Line states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes one cache level.
type Config struct {
	Size     int // bytes
	Assoc    int
	LineSize int // bytes (power of two)
	Latency  uint64
	Banks    int // 0 = unbanked
}

// Validate checks the geometry, naming the level in error messages so
// a bad CLI flag yields a usable diagnostic instead of a stack trace.
func (c Config) Validate(name string) error {
	if c.Size <= 0 {
		return fmt.Errorf("cache %s: size %d must be positive", name, c.Size)
	}
	line := c.LineSize
	if line == 0 {
		line = 64
	}
	if line&(line-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a power of two", name, line)
	}
	assoc := c.Assoc
	if assoc <= 0 {
		assoc = 1
	}
	nsets := c.Size / (line * assoc)
	if nsets <= 0 {
		nsets = 1
	}
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d (size %d / line %d / assoc %d) must be a power of two",
			name, nsets, c.Size, line, assoc)
	}
	return nil
}

type line struct {
	tag   uint64
	state State
	lru   uint64
}

// Cache is one set-associative, physically tagged cache array. The
// sets are consecutive runs of assoc lines in one backing array.
type Cache struct {
	cfg       Config
	lines     []line
	assoc     int
	setMask   uint64
	lineShift uint
	stamp     uint64
}

// NewCache builds a cache from cfg.
func NewCache(cfg Config) *Cache {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 1
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if nsets <= 0 {
		nsets = 1
	}
	// Ill-formed geometries (see Config.Validate) round up to the next
	// power-of-two set count; validated configs never trigger this.
	for nsets&(nsets-1) != 0 {
		nsets++
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	return &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc), assoc: cfg.Assoc,
		setMask: uint64(nsets - 1), lineShift: shift}
}

// set returns the ways of set i.
func (c *Cache) set(i uint64) []line {
	base := int(i) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address of pa.
func (c *Cache) LineAddr(pa uint64) uint64 { return pa >> c.lineShift << c.lineShift }

// Bank returns the bank index of pa (K8 banks on 8-byte boundaries
// within the line). Returns 0 when unbanked.
func (c *Cache) Bank(pa uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int(pa>>3) % c.cfg.Banks
}

func (c *Cache) find(pa uint64) (set []line, idx int) {
	tag := pa >> c.lineShift
	set = c.set(tag & c.setMask)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return set, i
		}
	}
	return set, -1
}

// Probe reports whether pa is resident, without touching LRU state.
func (c *Cache) Probe(pa uint64) (State, bool) {
	set, i := c.find(pa)
	if i < 0 {
		return Invalid, false
	}
	return set[i].state, true
}

// Touch looks up pa and refreshes LRU on hit.
func (c *Cache) Touch(pa uint64) (State, bool) {
	set, i := c.find(pa)
	if i < 0 {
		return Invalid, false
	}
	c.stamp++
	set[i].lru = c.stamp
	return set[i].state, true
}

// Evicted describes a victim line pushed out by a fill.
type Evicted struct {
	LineAddr uint64
	State    State
	Valid    bool
}

// Fill installs pa's line in the given state, returning any victim
// (dirty victims must be written back by the caller's hierarchy).
func (c *Cache) Fill(pa uint64, st State) Evicted {
	tag := pa >> c.lineShift
	set := c.set(tag & c.setMask)
	c.stamp++
	victim := 0
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			set[i].state = st
			set[i].lru = c.stamp
			return Evicted{}
		}
		if set[i].state == Invalid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev := Evicted{}
	if set[victim].state != Invalid {
		ev = Evicted{LineAddr: set[victim].tag << c.lineShift, State: set[victim].state, Valid: true}
	}
	set[victim] = line{tag: tag, state: st, lru: c.stamp}
	return ev
}

// SetState changes the state of a resident line (coherence actions);
// it reports whether the line was present.
func (c *Cache) SetState(pa uint64, st State) bool {
	set, i := c.find(pa)
	if i < 0 {
		return false
	}
	set[i].state = st
	return true
}

// Invalidate drops pa's line, returning its prior state.
func (c *Cache) Invalidate(pa uint64) State {
	set, i := c.find(pa)
	if i < 0 {
		return Invalid
	}
	prior := set[i].state
	set[i].state = Invalid
	return prior
}

// Flush invalidates the entire cache.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i].state = Invalid
	}
}

// Audit checks the cache's structural invariants, naming the level in
// any violation report: every set's valid lines must carry distinct
// tags (a duplicate means a line was double-filled) and distinct LRU
// stamps no newer than the global stamp (Touch/Fill assign a freshly
// incremented stamp per access, so equality or a future stamp can only
// arise from corruption).
func (c *Cache) Audit(name string) error {
	for si := uint64(0); si <= c.setMask; si++ {
		set := c.set(si)
		for i := range set {
			if set[i].state == Invalid {
				continue
			}
			if set[i].lru > c.stamp {
				return fmt.Errorf("cache %s set %d way %d: lru stamp %d newer than global stamp %d",
					name, si, i, set[i].lru, c.stamp)
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].state == Invalid {
					continue
				}
				if set[i].tag == set[j].tag {
					return fmt.Errorf("cache %s set %d: duplicate tag %#x in ways %d and %d",
						name, si, set[i].tag, i, j)
				}
				if set[i].lru == set[j].lru {
					return fmt.Errorf("cache %s set %d: duplicate lru stamp %d in ways %d and %d",
						name, si, set[i].lru, i, j)
				}
			}
		}
	}
	return nil
}

// Resident counts valid lines (for tests and occupancy stats).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}
