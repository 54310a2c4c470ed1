package mvc

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"webmlgo/internal/cookie"
)

// Session holds per-user state objects that "persist between consecutive
// requests" (Section 2) — the authenticated user, sticky form state, and
// application attributes.
type Session struct {
	ID      string
	mu      sync.Mutex
	values  map[string]interface{}
	touched time.Time
}

// Get returns a session attribute.
func (s *Session) Get(key string) (interface{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[key]
	return v, ok
}

// Set stores a session attribute.
func (s *Session) Set(key string, v interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = v
}

// Delete removes a session attribute.
func (s *Session) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
}

// empty reports whether the session holds no attribute.
func (s *Session) empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.values) == 0
}

// User returns the authenticated principal, or "".
func (s *Session) User() string {
	v, ok := s.Get(sessionUserKey)
	if !ok {
		return ""
	}
	u, _ := v.(string)
	return u
}

const (
	sessionCookie  = "WSESSION"
	sessionUserKey = "user"
)

// SessionManager issues and resumes cookie-bound sessions by one rule
// (Resume). A session is registered, and its cookie set, only when
// something is stored into it, and the response that sets the cookie is
// private. Idle sessions are dropped when their cookie comes back, and
// by a sweep each time registrations have doubled the live count since
// the last one, so sessions whose cookies never return cannot pile up.
type SessionManager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	swept    int // live sessions the last sweep left
	ttl      time.Duration
	now      func() time.Time
}

// NewSessionManager returns a manager expiring idle sessions after ttl
// (<=0 selects 30 minutes).
func NewSessionManager(ttl time.Duration) *SessionManager {
	if ttl <= 0 {
		ttl = 30 * time.Minute
	}
	return &SessionManager{sessions: make(map[string]*Session), ttl: ttl, now: time.Now}
}

// Resume returns the request's session. A cookie naming a live session
// gets that session. A cookie naming none (expired, or from before a
// restart) gets a new registered session, its cookie renewed on w. A
// request without a cookie gets a detached session, which the caller
// registers only when it stores into it.
func (m *SessionManager) Resume(w http.ResponseWriter, r *http.Request) *Session {
	id, ok := cookie.Value(r, sessionCookie)
	if !ok {
		return m.Detached()
	}
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok && m.now().Sub(s.touched) <= m.ttl {
		s.touched = m.now()
		m.mu.Unlock()
		return s
	}
	delete(m.sessions, id)
	m.mu.Unlock()
	return m.Register(w, m.Detached())
}

// Detached returns a session that is not registered and sets no cookie.
func (m *SessionManager) Detached() *Session {
	return &Session{values: make(map[string]interface{}), touched: m.now()}
}

// Register gives a detached session an ID and registers it. When w is
// not nil it sets the session cookie on w and makes the response
// private: a response that hands out a session is never stored by a
// shared cache. A registered session is left as is.
func (m *SessionManager) Register(w http.ResponseWriter, s *Session) *Session {
	if s.ID != "" {
		return s
	}
	s.ID = newSessionID()
	m.mu.Lock()
	m.sessions[s.ID] = s
	if len(m.sessions) > 2*m.swept {
		m.sweep()
	}
	m.mu.Unlock()
	if w != nil {
		http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: s.ID, Path: "/", HttpOnly: true})
		setPrivate(w.Header())
	}
	return s
}

// setPrivate forbids every shared cache to store the response.
func setPrivate(h http.Header) { h["Cache-Control"] = hdrCachePrivate }

// Len returns the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// sweep drops idle sessions. The caller holds m.mu.
func (m *SessionManager) sweep() {
	cutoff := m.now().Add(-m.ttl)
	for id, s := range m.sessions {
		if s.touched.Before(cutoff) {
			delete(m.sessions, id)
		}
	}
	m.swept = len(m.sessions)
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand read failures are unrecoverable environment errors.
		panic("mvc: cannot generate session id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
