// Package surrogate is the protocol between the edge tier and its
// origin: the headers an origin fetch and its response carry, and their
// format. The edge (internal/edge) reads them and the controller
// (internal/mvc) writes them; between processes they are ordinary HTTP
// headers.
package surrogate

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// Capability is the Surrogate-Capability token the edge advertises on
// every origin fetch; the origin answers a page with an ESI container
// when it sees the ESI/1.0 capability.
const Capability = `webmlgo="ESI/1.0"`

// DepsHeader lists a fragment's dependency tags, one tag per value.
// Present with one empty value, it lists none: its presence alone marks
// the response surrogate-aware.
const DepsHeader = "X-Webml-Deps"

// Tags returns the dependency tags of DepsHeader values, or of the
// invalidation endpoint's tags values: the values themselves, unless one
// is empty or lists several, space- or comma-separated, as an
// intermediary folding header lines sends them.
func Tags(vs []string) []string {
	for _, v := range vs {
		if v == "" || strings.ContainsAny(v, ", ") {
			var tags []string
			for _, v := range vs {
				tags = append(tags, strings.Fields(strings.ReplaceAll(v, ",", " "))...)
			}
			return tags
		}
	}
	return vs
}

// MaxAge returns the max-age directive of a Surrogate-Control value, or
// def when it has none.
func MaxAge(sc string, def time.Duration) time.Duration {
	for sc != "" {
		var part string
		part, sc, _ = strings.Cut(sc, ",")
		if v, ok := strings.CutPrefix(strings.TrimSpace(part), "max-age="); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				return time.Duration(n) * time.Second
			}
		}
	}
	return def
}

// maxAgeValues holds the Surrogate-Control value of each TTL a fragment
// has been served with, made on its first use.
var maxAgeValues struct {
	sync.RWMutex
	m map[int][]string
}

// maxAgeCap bounds maxAgeValues; past it a value is made per call.
const maxAgeCap = 1024

// MaxAgeValue returns the Surrogate-Control header value max-age=<ttl>
// as a one-element slice shared by every response of that TTL. It is
// full, so a downstream Add copies it; nothing may write into it.
func MaxAgeValue(ttl int) []string {
	maxAgeValues.RLock()
	v, ok := maxAgeValues.m[ttl]
	maxAgeValues.RUnlock()
	if ok {
		return v
	}
	v = []string{"max-age=" + strconv.Itoa(ttl)}
	maxAgeValues.Lock()
	defer maxAgeValues.Unlock()
	if maxAgeValues.m == nil {
		maxAgeValues.m = make(map[int][]string)
	}
	if len(maxAgeValues.m) < maxAgeCap {
		maxAgeValues.m[ttl] = v
	}
	return v
}
