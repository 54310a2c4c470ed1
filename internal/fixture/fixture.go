// Package fixture provides the reference model used across the test
// suites and examples: the ACM Digital Library fragment of Figures 1–2
// (a Volume page with a data unit, a hierarchical Issues&Papers index and
// a keyword entry unit), its ER schema, and seed data.
package fixture

import (
	"fmt"

	"webmlgo/internal/er"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// ACMSchema returns the ER schema behind Figure 1: Volume 1:N Issue 1:N
// Paper, plus an N:M Paper–Keyword relationship exercising bridge-table
// storage.
func ACMSchema() *er.Schema {
	return &er.Schema{
		Entities: []*er.Entity{
			{Name: "Volume", Attributes: []er.Attribute{
				{Name: "Title", Type: er.String, Required: true},
				{Name: "Year", Type: er.Int},
			}},
			{Name: "Issue", Attributes: []er.Attribute{
				{Name: "Number", Type: er.Int},
				{Name: "Month", Type: er.String},
			}},
			{Name: "Paper", Attributes: []er.Attribute{
				{Name: "Title", Type: er.String, Required: true},
				{Name: "Abstract", Type: er.String},
				{Name: "Pages", Type: er.Int},
			}},
			{Name: "Keyword", Attributes: []er.Attribute{
				{Name: "Word", Type: er.String, Unique: true},
			}},
		},
		Relationships: []*er.Relationship{
			{Name: "VolumeToIssue", From: "Volume", To: "Issue",
				FromRole: "VolumeToIssue", ToRole: "IssueToVolume",
				FromCard: er.Many, ToCard: er.One},
			{Name: "IssueToPaper", From: "Issue", To: "Paper",
				FromRole: "IssueToPaper", ToRole: "PaperToIssue",
				FromCard: er.Many, ToCard: er.One},
			{Name: "PaperKeyword", From: "Paper", To: "Keyword",
				FromRole: "PaperToKeyword", ToRole: "KeywordToPaper",
				FromCard: er.Many, ToCard: er.Many},
		},
	}
}

// Figure1Model returns the WebML model of Figure 1 plus an admin site
// view with create/modify/delete/connect operations, so every core unit
// kind appears at least once.
func Figure1Model() *webml.Model {
	b := webml.NewBuilder("acm-dl", ACMSchema())

	public := b.SiteView("public", "ACM Digital Library")

	volumes := public.Page("volumesPage", "Volumes").Landmark().Layout("one-column")
	volIndex := volumes.Index("volIndex", "Volume", "Title", "Year")
	volIndex.Order = []webml.OrderKey{{Attr: "Year", Desc: true}}

	volume := public.Page("volumePage", "Volume Page").Layout("two-column")
	volData := volume.Data("volumeData", "Volume", "Title", "Year")
	volData.Selector = []webml.Condition{{Attr: "oid", Op: "=", Param: "volume"}}
	volData.Cache = &webml.CacheSpec{Enabled: true}
	issuesPapers := volume.Index("issuesPapers", "Issue", "Number", "Month")
	issuesPapers.Relationship = "VolumeToIssue"
	issuesPapers.Order = []webml.OrderKey{{Attr: "Number"}}
	issuesPapers.Nest = &webml.Nesting{
		Relationship: "IssueToPaper",
		Display:      []string{"Title"},
		Order:        []webml.OrderKey{{Attr: "Title"}},
	}
	issuesPapers.Cache = &webml.CacheSpec{Enabled: true}
	keyword := volume.Entry("enterKeyword",
		webml.Field{Name: "keyword", Type: er.String, Required: true})

	paper := public.Page("paperPage", "Paper Details").Layout("one-column")
	paperData := paper.Data("paperData", "Paper", "Title", "Abstract", "Pages")
	paperData.Selector = []webml.Condition{{Attr: "oid", Op: "=", Param: "paper"}}
	paperKeywords := paper.Index("paperKeywords", "Keyword", "Word")
	paperKeywords.Relationship = "PaperKeyword"

	search := public.Page("searchResults", "Search Results").Layout("one-column")
	results := search.Scroller("searchIndex", "Paper", 10, "Title", "Pages")
	results.Selector = []webml.Condition{{Attr: "Title", Op: "LIKE", Param: "kw"}}
	results.Order = []webml.OrderKey{{Attr: "Title"}}

	b.Link(volIndex.ID, volume.Ref(), webml.P("oid", "volume"))
	b.Transport(volData.ID, issuesPapers.ID, webml.P("oid", "parent"))
	b.Transport(paperData.ID, paperKeywords.ID, webml.P("oid", "parent"))
	b.Link(issuesPapers.ID, paper.Ref(), webml.P("oid", "paper"))
	b.Link(keyword.ID, search.Ref(), webml.P("keyword", "kw"))
	b.Link(results.ID, paper.Ref(), webml.P("oid", "paper"))

	admin := b.SiteView("admin", "Volume Administration").Protected()
	manage := admin.Page("managePage", "Manage Volumes").Layout("two-column")
	manageIndex := manage.Index("manageIndex", "Volume", "Title", "Year")
	volForm := manage.Entry("volForm",
		webml.Field{Name: "title", Type: er.String, Required: true},
		webml.Field{Name: "year", Type: er.Int})

	createVol := b.Operation("createVolume", webml.CreateUnit, "Volume")
	createVol.Set = map[string]string{"Title": "title", "Year": "year"}
	b.Link(volForm.ID, createVol.ID,
		webml.P("title", "title"), webml.P("year", "year"))
	b.OK(createVol.ID, manage.Ref())
	b.KO(createVol.ID, manage.Ref())

	deleteVol := b.Operation("deleteVolume", webml.DeleteUnit, "Volume")
	b.Link(manageIndex.ID, deleteVol.ID, webml.P("oid", "oid"))
	b.OK(deleteVol.ID, manage.Ref())
	b.KO(deleteVol.ID, manage.Ref())

	tagPage := admin.Page("tagPage", "Tag Papers").Landmark().Layout("two-column")
	tagPapers := tagPage.Multichoice("tagPapers", "Paper", "Title")
	tagKeywords := tagPage.Index("tagKeywords", "Keyword", "Word")
	connect := b.Connect("tagPaper", "PaperKeyword")
	b.Link(tagPapers.ID, connect.ID, webml.P("oid", "from"))
	b.Link(tagKeywords.ID, connect.ID, webml.P("oid", "to"))
	b.OK(connect.ID, tagPage.Ref())

	return b.MustBuild()
}

// Seed populates db (whose schema must already exist) with the sample
// content the integration tests and examples assert against. The load is
// one transaction: on error nothing was written.
func Seed(db *rdb.DB) error {
	stmts := []struct {
		sql  string
		args []rdb.Value
	}{
		{`INSERT INTO volume (title, year) VALUES (?, ?)`, []rdb.Value{"TODS Volume 27", 2002}},
		{`INSERT INTO volume (title, year) VALUES (?, ?)`, []rdb.Value{"TODS Volume 26", 2001}},
		{`INSERT INTO issue (number, month, fk_volumetoissue) VALUES (?, ?, ?)`, []rdb.Value{1, "March", 1}},
		{`INSERT INTO issue (number, month, fk_volumetoissue) VALUES (?, ?, ?)`, []rdb.Value{2, "June", 1}},
		{`INSERT INTO issue (number, month, fk_volumetoissue) VALUES (?, ?, ?)`, []rdb.Value{1, "March", 2}},
		{`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
			[]rdb.Value{"Design Principles for Data-Intensive Web Sites", "Principles.", 6, 1}},
		{`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
			[]rdb.Value{"Query Optimization in Practice", "Optimizers.", 30, 1}},
		{`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
			[]rdb.Value{"Caching Dynamic Web Content", "Caches.", 24, 2}},
		{`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
			[]rdb.Value{"Views and Updates", "Views.", 18, 3}},
		{`INSERT INTO keyword (word) VALUES (?)`, []rdb.Value{"web"}},
		{`INSERT INTO keyword (word) VALUES (?)`, []rdb.Value{"caching"}},
		{`INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)`, []rdb.Value{1, 1}},
		{`INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)`, []rdb.Value{3, 1}},
		{`INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)`, []rdb.Value{3, 2}},
	}
	tx := db.Begin()
	for _, s := range stmts {
		if _, err := tx.Exec(s.sql, s.args...); err != nil {
			tx.Rollback()
			return fmt.Errorf("fixture: seed %q: %w", s.sql, err)
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("fixture: seed: %w", err)
	}
	return nil
}
