package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadModelBuiltins(t *testing.T) {
	m, synthetic, err := loadModel("acm")
	if err != nil || synthetic {
		t.Fatalf("acm: %v synthetic=%v", err, synthetic)
	}
	if m.Stats().Pages != 6 {
		t.Fatalf("acm pages = %d", m.Stats().Pages)
	}
	m, synthetic, err = loadModel("acer:3:24:132")
	if err != nil || !synthetic {
		t.Fatalf("acer: %v synthetic=%v", err, synthetic)
	}
	if m.Stats().Pages != 24 {
		t.Fatalf("acer pages = %d", m.Stats().Pages)
	}
	for _, bad := range []string{"ghost", "acer:1:2", "acer:x:y:z"} {
		if _, _, err := loadModel(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestLoadModelFromFiles(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "app.xml")
	src := `<webml name="filetest">
  <data><entity name="A"><attribute name="X" type="int"/></entity></data>
  <siteView id="sv" name="sv" home="home">
    <page id="home" name="home"><unit id="i" kind="index" entity="A" display="X"/></page>
  </siteView>
</webml>`
	if err := os.WriteFile(doc, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, _, err := loadModel("file:" + doc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "filetest" {
		t.Fatalf("name = %q", m.Name)
	}
	if _, _, err := loadModel("file:" + filepath.Join(dir, "missing.xml")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Garbage XML.
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("not xml"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadModel("file:" + bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestStyleByName(t *testing.T) {
	for _, name := range []string{"b2c", "b2b", "intranet", "mobile"} {
		rs, err := styleByName(name)
		if err != nil || rs == nil || rs.Name != name {
			t.Fatalf("%s: %v %v", name, rs, err)
		}
	}
	if rs, err := styleByName(""); err != nil || rs != nil {
		t.Fatalf("empty: %v %v", rs, err)
	}
	if _, err := styleByName("neon"); err == nil || !strings.Contains(err.Error(), "unknown style") {
		t.Fatalf("err = %v", err)
	}
}
