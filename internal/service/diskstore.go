package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// snapExt is the on-disk snapshot filename extension; a model named "taxi"
// persists as <dir>/taxi.snap.
const snapExt = ".snap"

// DiskStore layers snapshot persistence under the in-memory Store: models
// built (or imported) through it are written to a directory as versioned
// binary snapshots, and cache misses read through to disk before falling
// back to a build. A daemon restarted on the same directory therefore
// serves every previously built model without re-running the clustering —
// only the classifier's spatial index is rebuilt, pinned by the durability
// test.
//
// Semantics relative to Store:
//   - Get/GetOrBuild read through: an LRU miss tries <dir>/<name>.snap
//     first. GetOrBuild does it inside the single-flight slot its build
//     would use, so concurrent callers for one name do one disk load or
//     one build. Get's probes single-flight among themselves, apart from
//     the builds: Pending never reports a probe, and a build never joins
//     one and inherits its miss.
//   - Fresh builds are persisted write-behind: the build's caller returns
//     as soon as the model is ready; the snapshot encode+write runs in a
//     background goroutine (Quiesce waits them out — tests and daemon
//     shutdown call it). A write failure is recorded (SaveErrs) but never
//     fails the build.
//   - Put (the import path) persists synchronously: an imported snapshot
//     must survive a crash immediately after the 2xx.
//   - Delete removes both the cached model and the snapshot file.
//
// A DiskStore with an empty dir is memory-only: exactly a *Store, plus
// counters. All methods are safe for concurrent use.
type DiskStore struct {
	mem *Store
	dir string // "" = memory-only

	probeMu sync.Mutex
	probes  map[string]*probe // Get's disk read-throughs in flight

	wg    sync.WaitGroup
	loads atomic.Int64 // successful disk read-throughs
	saves atomic.Int64 // successful disk writes

	errMu   sync.Mutex
	saveErr error // first asynchronous save failure, for surfacing in tests/logs
}

// NewDiskStore creates a disk-backed store capped at maxModels resident
// models (≤ 0 unbounded; the cap bounds memory, not disk). dir is created
// if missing; an empty dir disables persistence.
func NewDiskStore(dir string, maxModels int) (*DiskStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating snapshot dir: %w", err)
		}
	}
	return &DiskStore{mem: NewStore(maxModels), dir: dir, probes: map[string]*probe{}}, nil
}

// Loads returns the number of models served from disk instead of a build.
func (ds *DiskStore) Loads() int64 { return ds.loads.Load() }

// Saves returns the number of snapshots successfully written to disk.
func (ds *DiskStore) Saves() int64 { return ds.saves.Load() }

// SaveErr returns the first write-behind persistence failure, if any.
func (ds *DiskStore) SaveErr() error {
	ds.errMu.Lock()
	defer ds.errMu.Unlock()
	return ds.saveErr
}

// Quiesce blocks until all background snapshot writes have finished.
func (ds *DiskStore) Quiesce() { ds.wg.Wait() }

// Len, Names, Pending, WaitCtx delegate to the resident cache.
func (ds *DiskStore) Len() int                 { return ds.mem.Len() }
func (ds *DiskStore) Names() []string          { return ds.mem.Names() }
func (ds *DiskStore) Pending(name string) bool { return ds.mem.Pending(name) }
func (ds *DiskStore) WaitCtx(ctx context.Context, name string) (*Model, bool, error) {
	return ds.mem.WaitCtx(ctx, name)
}

// path returns the snapshot file for name, guarding against names that
// could escape the directory. Callers validate with ValidModelName first;
// this is the second line.
func (ds *DiskStore) path(name string) (string, error) {
	if !ValidModelName(name) {
		return "", fmt.Errorf("service: invalid model name %q", name)
	}
	return filepath.Join(ds.dir, name+snapExt), nil
}

// loadDisk reads and rebuilds <name>.snap. found=false means no snapshot
// exists (not an error); decode/rebuild failures are returned as-is (typed
// snapshot errors included).
func (ds *DiskStore) loadDisk(name string) (m *Model, found bool, err error) {
	if ds.dir == "" {
		return nil, false, nil
	}
	p, err := ds.path(name)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m, err = DecodeModel(data)
	if err != nil {
		return nil, true, fmt.Errorf("service: loading snapshot %s: %w", p, err)
	}
	ds.loads.Add(1)
	return m, true, nil
}

// saveDisk encodes and writes the model's snapshot atomically (temp file +
// rename), so readers never observe a half-written snapshot.
func (ds *DiskStore) saveDisk(name string, m *Model) error {
	if ds.dir == "" {
		return nil
	}
	p, err := ds.path(name)
	if err != nil {
		return err
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(ds.dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	ds.saves.Add(1)
	return nil
}

// saveBehind persists the model in the background (fresh builds).
func (ds *DiskStore) saveBehind(name string, m *Model) {
	if ds.dir == "" {
		return
	}
	ds.wg.Add(1)
	go func() {
		defer ds.wg.Done()
		if err := ds.saveDisk(name, m); err != nil {
			ds.errMu.Lock()
			if ds.saveErr == nil {
				ds.saveErr = err
			}
			ds.errMu.Unlock()
		}
	}()
}

// probe is one disk read-through of Get; concurrent Gets of a name share it.
type probe struct {
	done  chan struct{} // closed when the outcome below is set
	m     *Model
	found bool
	err   error
}

// Get returns the named model from the resident cache, reading through to
// disk on a miss. found=false means neither cache nor disk has it. A
// snapshot that exists but fails to decode surfaces its typed error.
//
// Concurrent misses for one name share one disk load, which runs apart from
// the cache's build single-flight: a probe is not a build, so Pending never
// reports one and a build never joins one. A loaded model is published with
// Store.Adopt, which leaves a resident model or a build in flight alone.
func (ds *DiskStore) Get(name string) (m *Model, found bool, err error) {
	if m, ok := ds.mem.Get(name); ok {
		return m, true, nil
	}
	if ds.dir == "" || !ValidModelName(name) {
		return nil, false, nil
	}
	ds.probeMu.Lock()
	p, joined := ds.probes[name]
	if !joined {
		p = &probe{done: make(chan struct{})}
		ds.probes[name] = p
	}
	ds.probeMu.Unlock()
	if joined {
		<-p.done
		return p.m, p.found, p.err
	}
	p.m, p.found, p.err = ds.loadDisk(name)
	if p.err == nil && p.found {
		p.m = ds.mem.Adopt(name, p.m)
	}
	ds.probeMu.Lock()
	delete(ds.probes, name)
	ds.probeMu.Unlock()
	close(p.done)
	return p.m, p.found, p.err
}

// GetOrBuild returns the named model, loading it from disk on a cache miss
// and building it only when no snapshot exists either. Single-flight is
// preserved end to end: concurrent callers for one name share one disk
// load or one build. A model produced by build (not loaded) is persisted
// write-behind; loaded reports whether the model came from disk.
func (ds *DiskStore) GetOrBuild(name string, build func() (*Model, error)) (m *Model, built, loaded bool, err error) {
	var fromDisk bool
	m, built, err = ds.mem.GetOrBuild(name, func() (*Model, error) {
		if m, found, err := ds.loadDisk(name); err == nil && found {
			fromDisk = true
			return m, nil
		}
		// Disk miss or unreadable snapshot: fall through to a real build
		// (a corrupt file must not brick the name forever).
		return build()
	})
	if err != nil {
		return nil, false, false, err
	}
	if built && fromDisk {
		// The single-flight slot ran, but served a disk load, not a build.
		return m, false, true, nil
	}
	if built {
		ds.saveBehind(name, m)
	}
	return m, built, false, nil
}

// Put inserts an already-built model (the snapshot import path), persisting
// it synchronously before it becomes visible: a crash right after Put
// returns must not lose the import. ErrBuildInFlight passes through from
// the resident cache.
func (ds *DiskStore) Put(name string, m *Model) error {
	// Advisory pre-check so the common conflict (import racing a build)
	// rejects before touching disk; mem.Put below is the real authority.
	if _, ready := ds.mem.Get(name); !ready && ds.mem.Pending(name) {
		return ErrBuildInFlight
	}
	if err := ds.saveDisk(name, m); err != nil {
		return err
	}
	return ds.mem.Put(name, m)
}

// Replace publishes a new epoch of an already-served model: the resident
// cache entry swaps to m immediately (readers holding the old *Model finish
// on their consistent pre-append view) and the snapshot persists
// write-behind, like a fresh build — an append is an incremental build, and
// a crash between the swap and the write loses at most the appended epoch,
// never the model. ErrBuildInFlight passes through from the resident cache.
func (ds *DiskStore) Replace(name string, m *Model) error {
	if err := ds.mem.Put(name, m); err != nil {
		return err
	}
	ds.saveBehind(name, m)
	return nil
}

// Delete evicts the model and removes its snapshot file. It reports
// whether either existed.
func (ds *DiskStore) Delete(name string) bool {
	evicted := ds.mem.Delete(name)
	if ds.dir == "" {
		return evicted
	}
	p, err := ds.path(name)
	if err != nil {
		return evicted
	}
	if err := os.Remove(p); err == nil {
		return true
	}
	return evicted
}
