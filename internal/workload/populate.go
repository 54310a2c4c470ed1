package workload

import (
	"fmt"
	"math/rand"

	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// Populate fills the Acer-Euro schema (already created in db) with
// rowsPerEntity rows per entity plus bridge-table instances, using the
// spec's seed for determinism. The load is one transaction: on error
// nothing was written. One commit is one WAL append and one fsync, where
// a lone writer's autocommits would pay one fsync per row.
func Populate(db *rdb.DB, rowsPerEntity int, seed int64) error {
	tx := db.Begin()
	if err := populate(tx, rowsPerEntity, seed); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("workload: populate: %w", err)
	}
	return nil
}

func populate(tx *rdb.Tx, rowsPerEntity int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	exec := func(sql string, args ...rdb.Value) error {
		_, err := tx.Exec(sql, args...)
		if err != nil {
			return fmt.Errorf("workload: populate: %w", err)
		}
		return nil
	}
	for i := 1; i <= rowsPerEntity; i++ {
		if err := exec(`INSERT INTO family (name) VALUES (?)`, fmt.Sprintf("Family %d", i)); err != nil {
			return err
		}
		if err := exec(`INSERT INTO country (name, code) VALUES (?, ?)`,
			fmt.Sprintf("Country %d", i), fmt.Sprintf("C%05d", i)); err != nil {
			return err
		}
		if err := exec(`INSERT INTO pricelist (name) VALUES (?)`, fmt.Sprintf("PriceList %d", i)); err != nil {
			return err
		}
	}
	for i := 1; i <= rowsPerEntity; i++ {
		fam := int64(rng.Intn(rowsPerEntity) + 1)
		if err := exec(`INSERT INTO product (name, code, price, description, fk_familytoproduct) VALUES (?, ?, ?, ?, ?)`,
			fmt.Sprintf("Product %d", i), fmt.Sprintf("P%06d", i),
			float64(rng.Intn(200000))/100, "A fine product.", fam); err != nil {
			return err
		}
		country := int64(rng.Intn(rowsPerEntity) + 1)
		if err := exec(`INSERT INTO news (title, body, fk_countrytonews) VALUES (?, ?, ?)`,
			fmt.Sprintf("News item %d", i), "Body.", country); err != nil {
			return err
		}
		if err := exec(`INSERT INTO event (title, location, fk_countrytoevent) VALUES (?, ?, ?)`,
			fmt.Sprintf("Event %d", i), fmt.Sprintf("City %d", rng.Intn(100)), country); err != nil {
			return err
		}
		if err := exec(`INSERT INTO dealer (name, city, fk_countrytodealer) VALUES (?, ?, ?)`,
			fmt.Sprintf("Dealer %d", i), fmt.Sprintf("City %d", rng.Intn(100)), country); err != nil {
			return err
		}
	}
	// Documents reference products, so they go in their own pass once all
	// products exist.
	for i := 1; i <= rowsPerEntity; i++ {
		prod := int64(rng.Intn(rowsPerEntity) + 1)
		if err := exec(`INSERT INTO document (title, url, fk_producttodocument) VALUES (?, ?, ?)`,
			fmt.Sprintf("Datasheet %d", i), fmt.Sprintf("/docs/%d.pdf", i), prod); err != nil {
			return err
		}
	}
	// Bridge instances: each price list covers a handful of products.
	for pl := 1; pl <= rowsPerEntity; pl++ {
		for k := 0; k < 3; k++ {
			prod := int64(rng.Intn(rowsPerEntity) + 1)
			if err := exec(`INSERT INTO rel_pricelistproduct (from_oid, to_oid) VALUES (?, ?)`,
				int64(pl), prod); err != nil {
				return err
			}
		}
	}
	return nil
}

// Request is one synthetic HTTP request against the generated app.
type Request struct {
	// Path is the controller-relative URL ("/page/..." form).
	Path string
}

// Requests produces a deterministic browse-heavy request mix over the
// model: ~60% detail pages (parameterized), ~30% browse pages, ~10%
// keyword searches. rowsPerEntity bounds the OIDs used.
func Requests(model *webml.Model, n, rowsPerEntity int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	var browse, detail []*webml.Page
	for _, p := range model.AllPages() {
		hasData := false
		hasScroller := false
		for _, u := range p.Units {
			switch u.Kind {
			case webml.DataUnit:
				hasData = true
			case webml.ScrollerUnit:
				hasScroller = true
			}
		}
		switch {
		case hasData:
			detail = append(detail, p)
		case hasScroller:
			browse = append(browse, p)
		}
	}
	out := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(10)
		switch {
		case r < 6 && len(detail) > 0:
			p := detail[rng.Intn(len(detail))]
			out = append(out, Request{Path: fmt.Sprintf("/page/%s?id=%d", p.ID, rng.Intn(rowsPerEntity)+1)})
		case r < 9 && len(browse) > 0:
			p := browse[rng.Intn(len(browse))]
			out = append(out, Request{Path: "/page/" + p.ID})
		case len(browse) > 0:
			p := browse[rng.Intn(len(browse))]
			out = append(out, Request{Path: fmt.Sprintf("/page/%s?kw=Product&offset=%d", p.ID, 10*rng.Intn(3))})
		default:
			p := model.AllPages()[rng.Intn(len(model.AllPages()))]
			out = append(out, Request{Path: "/page/" + p.ID})
		}
	}
	return out
}
