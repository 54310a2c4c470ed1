package webmlgo

// Tests of the one session rule and the shared-or-private invariant: a
// response that sets the session cookie is private, and a public
// response never sets one.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sessionCookieOf returns the WSESSION cookie a response sets, or nil.
func sessionCookieOf(rr *httptest.ResponseRecorder) *http.Cookie {
	for _, c := range rr.Result().Cookies() {
		if c.Name == "WSESSION" {
			return c
		}
	}
	return nil
}

// TestAnonymousPageReadsMintNoSession: cookie-less page reads without
// the edge in front store nothing, so they register no session and set
// no cookie on their public responses.
func TestAnonymousPageReadsMintNoSession(t *testing.T) {
	app := newApp(t)
	h := app.Handler()
	for i := 0; i < 1000; i++ {
		rr, _ := request(t, h, "/page/volumesPage", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, rr.Code)
		}
		if c := rr.Header().Values("Set-Cookie"); len(c) != 0 {
			t.Fatalf("read %d: Set-Cookie %q with Cache-Control %q", i, c, rr.Header().Get("Cache-Control"))
		}
	}
	if n := app.Controller.Sessions.Len(); n != 0 {
		t.Fatalf("1000 anonymous page reads left %d sessions, want 0", n)
	}
}

// TestLogoutIssuesSessionCookie: a cookie-less GET /logout stores into
// its session, so it registers one and sets WSESSION on a private
// response (clients and load generators take their cookie from it).
func TestLogoutIssuesSessionCookie(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	rr, _ := request(t, app.Handler(), "/logout", "")
	if sessionCookieOf(rr) == nil {
		t.Fatalf("cookie-less /logout set no WSESSION cookie (Set-Cookie %q)", rr.Header().Values("Set-Cookie"))
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "private, no-store" {
		t.Fatalf("/logout Cache-Control = %q, want private, no-store", cc)
	}
	if n := app.Controller.Sessions.Len(); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
}

// TestResponseSharedOrPrivate runs every route with no cookie, a live
// cookie and a stale one, with and without the edge: a response setting
// WSESSION is Cache-Control: private, no-store, and no response both
// sets a cookie and is public.
func TestResponseSharedOrPrivate(t *testing.T) {
	routes := []struct {
		name, method, path string
		surrogate          bool
	}{
		{"page", http.MethodGet, "/page/volumesPage", false},
		{"protected page", http.MethodGet, "/page/managePage", false},
		{"fragment", http.MethodGet, "/fragment/volumePage/volumeData?volume=1", true},
		{"operation OK", http.MethodGet, "/op/createVolume?title=Shared&year=2003", false},
		{"operation validation KO", http.MethodGet, "/op/createVolume?year=abc", false},
		{"login", http.MethodPost, "/login?user=alice", false},
		{"logout", http.MethodPost, "/logout", false},
	}
	for _, withEdge := range []bool{false, true} {
		var opts []Option
		if withEdge {
			opts = append(opts, WithEdgeCache(1024, time.Minute))
		}
		app := newApp(t, opts...)
		if app.Edge != nil {
			defer app.Edge.Close()
		}
		h := app.Handler()
		for _, cookie := range []string{"none", "live", "stale"} {
			for _, rt := range routes {
				req := httptest.NewRequest(rt.method, rt.path, nil)
				if rt.surrogate {
					req.Header.Set("Surrogate-Capability", `webmlgo="ESI/1.0"`)
				}
				switch cookie {
				case "live":
					lw, _ := request(t, h, "/logout", "")
					live := sessionCookieOf(lw)
					if live == nil {
						t.Fatal("/logout issued no session cookie")
					}
					req.AddCookie(live)
				case "stale":
					req.AddCookie(&http.Cookie{Name: "WSESSION", Value: "stale"})
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				where := rt.name + ", cookie " + cookie
				if withEdge {
					where += ", with the edge"
				}
				if rr.Code >= 500 {
					t.Fatalf("%s: status %d: %s", where, rr.Code, rr.Body.String())
				}
				cc := rr.Header().Get("Cache-Control")
				if sessionCookieOf(rr) != nil && cc != "private, no-store" {
					t.Errorf("%s: sets WSESSION with Cache-Control %q, want private, no-store", where, cc)
				}
				if len(rr.Header().Values("Set-Cookie")) > 0 && strings.Contains(cc, "public") {
					t.Errorf("%s: a public response (%q) sets a cookie", where, cc)
				}
			}
		}
	}
}
