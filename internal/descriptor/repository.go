package descriptor

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Repository holds the generated artifacts of one application: unit and
// page descriptors, the controller configuration, and the page template
// sources. It supports atomic descriptor replacement at runtime —
// "deploying the optimized version without interrupting the service"
// (Section 8) — and round-trips to a directory tree.
type Repository struct {
	mu        sync.RWMutex
	units     map[string]*Unit
	pages     map[string]*Page
	config    *Config
	templates map[string]string // template name -> markup
	// schedules memoizes the unit-computation plan per page, each with
	// the plans of its units' cones; an entry is dropped when its page
	// descriptor is hot-swapped.
	schedules map[string]*Schedule

	// OnQueryOverride, when set, runs before OverrideQuery swaps a unit's
	// SQL, outside the repository lock (it may run again if a concurrent
	// swap intervenes). An error refuses the override and leaves the unit
	// on its old query. App wiring uses it to refuse SQL the data tier
	// cannot plan and to drop the compiled plan cached for the replaced
	// query. Set during assembly, before the repository is shared.
	OnQueryOverride func(unitID, oldQuery, newQuery string) error
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		units:     make(map[string]*Unit),
		pages:     make(map[string]*Page),
		config:    &Config{},
		templates: make(map[string]string),
		schedules: make(map[string]*Schedule),
	}
}

// Clone returns a repository over copies of r's maps, so a change to
// either leaves the other alone. Descriptors are shared: the repository
// copies one before changing it. OnQueryOverride is not copied.
func (r *Repository) Clone() *Repository {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Repository{units: maps.Clone(r.units), pages: maps.Clone(r.pages), config: r.config,
		templates: maps.Clone(r.templates), schedules: maps.Clone(r.schedules)}
}

// PutUnit stores (or replaces) a unit descriptor.
func (r *Repository) PutUnit(u *Unit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units[u.ID] = u
}

// Unit returns the descriptor for a unit ID, or nil (also on a nil
// repository).
func (r *Repository) Unit(id string) *Unit {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.units[id]
}

// Units returns all unit descriptors sorted by ID.
func (r *Repository) Units() []*Unit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Unit, 0, len(r.units))
	for _, u := range r.units {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PutPage stores (or replaces) a page descriptor and drops its memoized
// schedule and the cones memoized on it, so the next request recomputes
// the plan against the new topology (Section 8's hot redeployment).
func (r *Repository) PutPage(p *Page) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pages[p.ID] = p
	delete(r.schedules, p.ID)
}

// Schedule returns the memoized computation plan named by id, building
// it on first use. A page ID names the plan of the whole page; a
// fragment ID "<page>/<unit>" names the plan of the unit's cone: the
// unit and the units it takes transport-edge parameters from,
// transitively, which is all a fragment of the unit needs computed.
// Either plan's Page is the page's descriptor. It errors when the page
// or the unit is unknown or the page's topology is invalid (cycle, edge
// to a unit not on the page).
func (r *Repository) Schedule(id string) (*Schedule, error) {
	pageID, unitID, fragment := strings.Cut(id, "/")
	s, err := r.pageSchedule(pageID)
	if err != nil || !fragment {
		return s, err
	}
	return s.cone(unitID)
}

// pageSchedule returns the memoized plan of a whole page.
func (r *Repository) pageSchedule(pageID string) (*Schedule, error) {
	r.mu.RLock()
	s, ok := r.schedules[pageID]
	pd := r.pages[pageID]
	r.mu.RUnlock()
	if ok {
		return s, nil
	}
	if pd == nil {
		return nil, fmt.Errorf("descriptor: no page %q", pageID)
	}
	s, err := ComputeSchedule(pd)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	// A concurrent hot-swap wins: only memoize against the descriptor the
	// schedule was computed from.
	if r.pages[pageID] == pd {
		r.schedules[pageID] = s
	}
	r.mu.Unlock()
	return s, nil
}

// Page returns the descriptor for a page ID, or nil.
func (r *Repository) Page(id string) *Page {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pages[id]
}

// Pages returns all page descriptors sorted by ID.
func (r *Repository) Pages() []*Page {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Page, 0, len(r.pages))
	for _, p := range r.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetConfig installs the controller configuration and indexes its
// mappings; c must not change afterwards.
func (r *Repository) SetConfig(c *Config) {
	c.index()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.config = c
}

// Config returns the controller configuration.
func (r *Repository) Config() *Config {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.config
}

// PutTemplate stores a page template source by name.
func (r *Repository) PutTemplate(name, markup string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.templates[name] = markup
}

// Template returns a stored template source.
func (r *Repository) Template(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.templates[name]
	return t, ok
}

// TemplateNames returns all stored template names, sorted.
func (r *Repository) TemplateNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.templates))
	for name := range r.templates {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Counts reports repository sizes (units, pages, templates).
func (r *Repository) Counts() (units, pages, templates int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.units), len(r.pages), len(r.templates)
}

// OverrideQuery atomically replaces a unit's query and marks the
// descriptor optimized, unless OnQueryOverride refuses the query. This
// is the Section 6 workflow for injecting a hand-tuned query. The hook
// runs outside the repository lock; the swap happens only if the unit's
// descriptor is still the one the hook checked, and is retried when a
// concurrent swap replaced it in between.
func (r *Repository) OverrideQuery(unitID, query string) error {
	for {
		u := r.Unit(unitID)
		if u == nil {
			return fmt.Errorf("descriptor: no unit %q", unitID)
		}
		if r.OnQueryOverride != nil {
			if err := r.OnQueryOverride(unitID, u.Query, query); err != nil {
				return err
			}
		}
		r.mu.Lock()
		if r.units[unitID] == u {
			clone := u.clone()
			clone.Query = query
			clone.Optimized = true
			r.units[unitID] = clone
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
	}
}

// OverrideService points a unit at a user-supplied business component and
// marks it optimized.
func (r *Repository) OverrideService(unitID, service string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.units[unitID]
	if !ok {
		return fmt.Errorf("descriptor: no unit %q", unitID)
	}
	clone := u.clone()
	clone.Service = service
	clone.Optimized = true
	r.units[unitID] = clone
	return nil
}

// OptimizedCount returns how many unit descriptors carry developer
// overrides — the numerator of the paper's "<5% needed manual retouching"
// experience figure.
func (r *Repository) OptimizedCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, u := range r.units {
		if u.Optimized {
			n++
		}
	}
	return n
}

// SaveDir writes the repository as a directory tree:
//
//	dir/units/<id>.xml
//	dir/pages/<id>.xml
//	dir/templates/<name>.tpl
//	dir/controller.xml
func (r *Repository) SaveDir(dir string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, sub := range []string{"units", "pages", "templates"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	for id, u := range r.units {
		data, err := Marshal(u)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "units", id+".xml"), data, 0o644); err != nil {
			return err
		}
	}
	for id, p := range r.pages {
		data, err := Marshal(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "pages", id+".xml"), data, 0o644); err != nil {
			return err
		}
	}
	for name, tpl := range r.templates {
		if err := os.WriteFile(filepath.Join(dir, "templates", name+".tpl"), []byte(tpl), 0o644); err != nil {
			return err
		}
	}
	data, err := Marshal(r.config)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "controller.xml"), data, 0o644)
}

// LoadDir reads a repository saved by SaveDir.
func LoadDir(dir string) (*Repository, error) {
	r := NewRepository()
	unitFiles, err := filepath.Glob(filepath.Join(dir, "units", "*.xml"))
	if err != nil {
		return nil, err
	}
	for _, f := range unitFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		u, err := UnmarshalUnit(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.units[u.ID] = u
	}
	pageFiles, err := filepath.Glob(filepath.Join(dir, "pages", "*.xml"))
	if err != nil {
		return nil, err
	}
	for _, f := range pageFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := UnmarshalPage(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.pages[p.ID] = p
	}
	tplFiles, err := filepath.Glob(filepath.Join(dir, "templates", "*.tpl"))
	if err != nil {
		return nil, err
	}
	for _, f := range tplFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(f), ".tpl")
		r.templates[name] = string(data)
	}
	cfgPath := filepath.Join(dir, "controller.xml")
	if data, err := os.ReadFile(cfgPath); err == nil {
		cfg, err := UnmarshalConfig(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfgPath, err)
		}
		r.config = cfg
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return r, nil
}
