package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

const (
	hotSetSize = 256
	zipfS      = 1.1
	// streamLen is the length of the pre-generated request cycle.
	streamLen = 1 << 17
	// replayLen is how many requests from the start of the stream the
	// traced replay of a driver's run sends one at a time.
	replayLen = 2000
)

// target is one GET URL of a workload.
type target struct {
	Path string
	Page string
	// Lists names the entities whose every row the page displays by its
	// first display attribute (an index, multidata or multichoice unit
	// without inputs): a modify of such a row must show on this page.
	Lists []string
}

// opTarget is one _modify operation: /op/<ID>?oid=&name= sets Column of
// Entity's row oid and redirects to its manage page.
type opTarget struct {
	ID     string
	Entity string
	Column string
	Writes []string
}

// request is one entry of the stream. For a GET, Idx indexes targets; for
// an operation it indexes ops and OID is the row to modify.
type request struct {
	Idx    uint32
	OID    uint16
	Cookie int8 // -1 sends none
	Op     bool
}

// stream is a workload's request sequence, a pure function of the model
// and the seed. The seed draws the sequence; the distribution it is drawn
// from (which URLs are hot and how hot, which operations exist) comes from
// the model alone, so two seeds give two samples of one workload and not
// two workloads of different cost.
type stream struct {
	targets []target
	ops     []opTarget
	reqs    []request
}

func (s *stream) at(i int) request { return s.reqs[i%len(s.reqs)] }

// firstDisplay mirrors the generator's choice of the attribute a modify
// operation sets: the first displayed attribute of the entity.
func firstDisplay(entity string) string {
	switch entity {
	case "News", "Event", "Document":
		return "title"
	default:
		return "name"
	}
}

// newStream builds the targets and the request cycle of a workload.
func newStream(model *webml.Model, repo *descriptor.Repository, spec workloadSpec, seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	if spec.Cold {
		s.targets = allPublicTargets(repo)
	} else {
		s.targets = hotTargets(model, repo)
	}
	if len(s.targets) == 0 {
		return nil, fmt.Errorf("stream: no public targets")
	}
	for i := range s.targets {
		s.targets[i].Lists = listedEntities(repo, s.targets[i].Page)
	}
	if spec.WriteShare > 0 {
		s.ops = modifyOps(repo, s.targets)
		if len(s.ops) == 0 {
			return nil, fmt.Errorf("stream: no modify operation on the hot set's entities")
		}
	}
	var zipf *rand.Zipf
	if !spec.Cold {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(s.targets)-1))
	}
	// Operations replace one request in every 1/WriteShare, at a drawn
	// position, and go through the operations in a drawn order before any
	// repeats: the share of writes and the mix of entities written, which
	// decides how much is purged and refilled, are then the same in every
	// phase under every seed, and no metric moves with them.
	period, opAt := 0, -1
	var opOrder []int
	if spec.WriteShare > 0 {
		period = int(math.Round(1 / spec.WriteShare))
	}
	s.reqs = make([]request, streamLen)
	for i := range s.reqs {
		r := request{Cookie: -1}
		if spec.Cookies {
			r.Cookie = int8(rng.Intn(sessionCount))
		}
		if period > 0 && i%period == 0 {
			opAt = i + rng.Intn(period)
		}
		switch {
		case i == opAt:
			if len(opOrder) == 0 {
				opOrder = rng.Perm(len(s.ops))
			}
			r.Op = true
			r.Idx, opOrder = uint32(opOrder[0]), opOrder[1:]
			r.OID = uint16(rng.Intn(rowsPerEntity) + 1)
		case spec.Cold:
			r.Idx = uint32(rng.Intn(len(s.targets)))
		default:
			r.Idx = uint32(zipf.Uint64())
		}
		s.reqs[i] = r
	}
	return s, nil
}

// hotTargets draws the hot set with workload.Requests' own mix (60 %
// detail ?id=, 30 % browse, 10 % ?kw= search) under the model's seed,
// keeping the first hotSetSize distinct URLs of public site views in
// order of popularity; protected (CM) site views answer 401 to users who
// are not logged in.
func hotTargets(model *webml.Model, repo *descriptor.Repository) []target {
	var out []target
	seen := map[string]bool{}
	for _, r := range workload.Requests(model, 64*hotSetSize, rowsPerEntity, workload.AcerEuro().Seed) {
		page := pageOf(r.Path)
		pd := repo.Page(page)
		if pd == nil || pd.Protected || seen[r.Path] {
			continue
		}
		seen[r.Path] = true
		out = append(out, target{Path: r.Path, Page: page})
		if len(out) == hotSetSize {
			break
		}
	}
	return out
}

// allPublicTargets enumerates every public page, detail pages once per id.
func allPublicTargets(repo *descriptor.Repository) []target {
	var out []target
	for _, pd := range repo.Pages() {
		if pd.Protected {
			continue
		}
		detail := false
		for _, u := range pd.Units {
			if d := repo.Unit(u.ID); d != nil && d.Kind == string(webml.DataUnit) {
				detail = true
			}
		}
		if !detail {
			out = append(out, target{Path: "/page/" + pd.ID, Page: pd.ID})
			continue
		}
		for id := 1; id <= rowsPerEntity; id++ {
			out = append(out, target{Path: fmt.Sprintf("/page/%s?id=%d", pd.ID, id), Page: pd.ID})
		}
	}
	return out
}

func pageOf(path string) string {
	p := strings.TrimPrefix(path, "/page/")
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	return p
}

func listedEntities(repo *descriptor.Repository, page string) []string {
	pd := repo.Page(page)
	if pd == nil {
		return nil
	}
	var out []string
	for _, u := range pd.Units {
		d := repo.Unit(u.ID)
		if d == nil || len(d.Inputs) > 0 {
			continue
		}
		switch d.Kind {
		case string(webml.IndexUnit), string(webml.MultidataUnit), string(webml.MultichoiceUnit):
			if !slices.Contains(out, d.Entity) {
				out = append(out, d.Entity)
			}
		}
	}
	return out
}

// modifyOps returns the public modify operations on entities the targets
// list, in id order. Modify only: entities, and so pages, do not grow
// during a run.
func modifyOps(repo *descriptor.Repository, targets []target) []opTarget {
	listed := map[string]bool{}
	for _, t := range targets {
		for _, e := range t.Lists {
			listed[e] = true
		}
	}
	var out []opTarget
	for _, d := range repo.Units() {
		if d.Kind != string(webml.ModifyUnit) || !listed[d.Entity] {
			continue
		}
		m := repo.Config().Mapping("op/" + d.ID)
		if m == nil {
			continue
		}
		if pd := repo.Page(strings.TrimPrefix(m.OK, "page/")); pd == nil || pd.Protected {
			continue
		}
		out = append(out, opTarget{ID: d.ID, Entity: d.Entity, Column: firstDisplay(d.Entity), Writes: d.Writes})
	}
	return out
}
