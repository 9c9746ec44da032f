package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// ErrBuildInFlight is returned by Put when the name is currently being
// built: replacing the entry mid-build would hand the builder's waiters a
// model the build didn't produce. Callers retry after the build resolves.
var ErrBuildInFlight = errors.New("service: model build in flight")

// Store is an LRU cache of named models with single-flight build
// deduplication: concurrent GetOrBuild calls for the same name trigger
// exactly one build, and everyone waits for (and shares) its outcome.
// Failed builds are not cached — the next request retries.
//
// Locking protocol: the store mutex guards the map and the LRU list only;
// it is never held while a build function runs, so slow builds don't block
// lookups of other models. Waiters block on the entry's ready channel
// outside the lock.
type Store struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	lru     *list.List // front = most recently used; ready entries only
}

type entry struct {
	name  string
	ready chan struct{} // closed when the build finished
	model *Model
	err   error
	elem  *list.Element // nil while building or after eviction
}

// NewStore creates a store capped at maxModels ready models (≤ 0 means
// unbounded). Builds in flight do not count toward the cap.
func NewStore(maxModels int) *Store {
	return &Store{cap: maxModels, entries: map[string]*entry{}, lru: list.New()}
}

// Len returns the number of ready models.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Names returns the ready model names, most recently used first.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		names = append(names, e.Value.(*entry).name)
	}
	return names
}

// Pending reports whether the name is cached or has a build in flight —
// i.e. whether a GetOrBuild for it would join existing work instead of
// starting a new build. Advisory: the answer can be stale by the time the
// caller acts on it.
func (s *Store) Pending(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[name]
	return ok
}

// WaitCtx blocks until the named entry resolves or ctx ends: it returns the
// cached model immediately, waits out an in-flight build and shares its
// outcome, or reports found=false when there is nothing to wait for
// (including a build that failed and was dropped between the caller's check
// and this call). Unlike GetOrBuild it carries no build function, so
// join-style callers need not retain build inputs. A joiner whose own
// context ends stops waiting (found stays true — there was something to
// wait for — and err is ctx.Err()); the underlying build is unaffected, only
// this waiter gives up.
func (s *Store) WaitCtx(ctx context.Context, name string) (m *Model, found bool, err error) {
	s.mu.Lock()
	en, ok := s.entries[name]
	if !ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	if en.elem != nil {
		s.lru.MoveToFront(en.elem)
		s.mu.Unlock()
		return en.model, true, nil
	}
	s.mu.Unlock()
	select {
	case <-en.ready:
		return en.model, true, en.err
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
}

// Get returns the named model if it is built and cached, marking it
// recently used. It never waits on an in-flight build.
func (s *Store) Get(name string) (*Model, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.entries[name]
	if !ok || en.elem == nil {
		return nil, false
	}
	s.lru.MoveToFront(en.elem)
	return en.model, true
}

// Delete evicts the named model from the cache (in-flight builds are left
// alone). It reports whether a ready model was removed.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.entries[name]
	if !ok || en.elem == nil {
		return false
	}
	s.lru.Remove(en.elem)
	en.elem = nil
	delete(s.entries, name)
	return true
}

// Put inserts (or replaces) a ready model under name, marking it most
// recently used and evicting beyond the cap exactly like a successful
// build. It is the import path — PUT /v1/models/{name}/snapshot — and
// never disturbs single-flight: if a build for name is in flight it
// returns ErrBuildInFlight instead of racing it.
func (s *Store) Put(name string, m *Model) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[name]; ok {
		if old.elem == nil {
			return ErrBuildInFlight
		}
		// Replace with a fresh entry rather than mutating the old one:
		// finished builds and their joiners read the old entry's model
		// outside the lock, so it must stay immutable once ready.
		s.lru.Remove(old.elem)
		old.elem = nil
	}
	s.push(&entry{name: name, ready: closedReady, model: m})
	return nil
}

// Adopt caches m under name unless the name already has an entry, and
// returns the model to serve: the resident one when the name is cached, m
// otherwise. A build in flight for the name stays the authority: m is
// returned uncached and the build publishes its own outcome. It is the
// publish step of a disk read-through, which runs outside the build
// single-flight, so it must neither race a build nor replace a newer epoch.
func (s *Store) Adopt(name string, m *Model) *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	if en, ok := s.entries[name]; ok {
		if en.elem == nil {
			return m
		}
		s.lru.MoveToFront(en.elem)
		return en.model
	}
	s.push(&entry{name: name, ready: closedReady, model: m})
	return m
}

// push enters a ready entry as the most recently used one and evicts the
// least recently used beyond the cap. s.mu must be held.
func (s *Store) push(en *entry) {
	s.entries[en.name] = en
	en.elem = s.lru.PushFront(en)
	for s.cap > 0 && s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		old := oldest.Value.(*entry)
		old.elem = nil
		delete(s.entries, old.name)
	}
}

// closedReady is the shared pre-closed ready channel of entries inserted
// already-resolved (Put): Wait-style joiners see them as finished builds.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// GetOrBuild returns the named model, building it with build on a miss.
// Among concurrent callers for the same name, exactly one runs build; the
// rest block until it finishes and share the same model or error. On
// success the model enters the LRU cache, evicting the least recently used
// model beyond the cap; on failure nothing is cached. built reports whether
// this caller ran the build — false for cache hits and for callers that
// joined another caller's in-flight build (whose input, if any, was
// therefore not used).
func (s *Store) GetOrBuild(name string, build func() (*Model, error)) (m *Model, built bool, err error) {
	s.mu.Lock()
	if en, ok := s.entries[name]; ok {
		if en.elem != nil {
			s.lru.MoveToFront(en.elem)
			s.mu.Unlock()
			return en.model, false, nil
		}
		s.mu.Unlock()
		<-en.ready
		return en.model, false, en.err
	}
	en := &entry{name: name, ready: make(chan struct{})}
	s.entries[name] = en
	s.mu.Unlock()

	en.model, en.err = build()

	s.mu.Lock()
	if en.err != nil {
		delete(s.entries, name)
	} else {
		s.push(en)
	}
	s.mu.Unlock()
	close(en.ready)
	return en.model, true, en.err
}
