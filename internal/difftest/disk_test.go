package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"mxq/internal/vfs"
)

// fault is one injected failure: the site of the durable layers whose
// call fails, and how — "eio", "enospc", or "short": half the bytes
// written, then ENOSPC.
type fault struct{ site, mode string }

func (f fault) String() string { return f.site + "/" + f.mode }

func (f fault) err() error {
	if f.mode == "eio" {
		return syscall.EIO
	}
	return syscall.ENOSPC
}

// fired is what diskFS.take reports of the fault: the site it fired at
// ("" if it did not), and whether an image had been published in the
// same operation before it — a fault in a checkpoint's chunk GC, which
// only leaks.
type fired struct {
	site    string
	inSweep bool
}

// diskFS is vfs.OS seen by the crash and fault modes. It names every call
// by the site of the durable layers it comes from, fails the nth call at
// one site once armed, and runs onCompact when the disk stands in a
// compaction's window: a pack renamed into place, its directory fsynced,
// and the first pack about to be removed.
type diskFS struct {
	segBytes int64 // a WAL segment this large is being sealed

	mu        sync.Mutex
	want      fault
	nth, seen int
	fired     fired
	imaged    bool         // an image was published since the last take
	last      [2][2]string // the previous two mutations: {op, path}
	onCompact func()
}

// arm fails the nth call at f.site from now on.
func (d *diskFS) arm(f fault, nth int) {
	d.mu.Lock()
	d.want, d.nth = f, nth
	d.mu.Unlock()
}

// take reports whether the fault fired since the last take.
func (d *diskFS) take() fired {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.fired
	d.fired, d.imaged = fired{}, false
	return f
}

// trip records the mutation op on path at site and returns the error it
// is to fail with, if any.
func (d *diskFS) trip(site, op, path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if op == "remove" && strings.HasSuffix(path, ".pack") && d.onCompact != nil &&
		d.last[0][0] == "rename" && strings.HasSuffix(d.last[0][1], ".pack") &&
		d.last[1] == [2]string{"syncdir", filepath.Dir(d.last[0][1])} {
		d.onCompact()
		d.onCompact = nil
	}
	d.last = [2][2]string{d.last[1], {op, path}}
	if site != "" && site == d.want.site {
		if d.seen++; d.seen == d.nth {
			d.fired = fired{site: site, inSweep: d.imaged}
			return d.want.err()
		}
	}
	if site == "image-dirsync" {
		d.imaged = true
	}
	return nil
}

// artifact names what path is to the durable layers: "wal" (a segment),
// "pack" or "image" (a tmp file or the published file), or "".
func artifact(path string) string {
	name := filepath.Base(path)
	if final, _, ok := vfs.SplitTmp(name); ok {
		name = final
	}
	switch {
	case strings.Contains(name, ".wal."):
		return "wal"
	case strings.HasSuffix(name, ".pack"):
		return "pack"
	case strings.HasSuffix(name, ".ckpt"):
		return "image"
	}
	return ""
}

func (d *diskFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	d.trip("", "open", name)
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, fs: d, path: name}, nil
}

func (d *diskFS) Rename(oldpath, newpath string) error {
	if err := d.trip(artifact(newpath)+"-rename", "rename", newpath); err != nil {
		return err
	}
	return vfs.OS.Rename(oldpath, newpath)
}

func (d *diskFS) SyncDir(dir string) error {
	d.mu.Lock()
	prev := d.last[1]
	d.mu.Unlock()
	site := ""
	if filepath.Dir(prev[1]) == dir && (prev[0] == "rename" || prev[0] == "open" && artifact(prev[1]) == "wal") {
		site = map[string]string{"wal": "segment", "pack": "pack", "image": "image"}[artifact(prev[1])] + "-dirsync"
	}
	if err := d.trip(site, "syncdir", dir); err != nil {
		return err
	}
	return vfs.OS.SyncDir(dir)
}

func (d *diskFS) Remove(name string) error {
	d.trip("", "remove", name)
	return vfs.OS.Remove(name)
}

func (d *diskFS) Truncate(name string, size int64) error {
	d.trip("", "truncate", name)
	return vfs.OS.Truncate(name, size)
}

func (d *diskFS) MkdirAll(path string, perm os.FileMode) error {
	d.trip("", "mkdir", path)
	return vfs.OS.MkdirAll(path, perm)
}

// diskFile is a file opened through diskFS.
type diskFile struct {
	vfs.File
	fs   *diskFS
	path string
}

func (f *diskFile) Write(p []byte) (int, error) {
	site := map[string]string{"wal": "wal-append", "pack": "pack-write"}[artifact(f.path)]
	if err := f.fs.trip(site, "write", f.path); err != nil {
		n := 0
		if f.fs.want.mode == "short" {
			n, _ = f.File.Write(p[:len(p)/2])
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *diskFile) Sync() error {
	site := artifact(f.path) + "-fsync"
	if site == "wal-fsync" {
		// The door syncs the active segment, a seal the one that reached
		// the rotation threshold.
		site = "wal-sync"
		if fi, err := os.Stat(f.path); err == nil && fi.Size() >= f.fs.segBytes {
			site = "wal-seal"
		}
	}
	if err := f.fs.trip(site, "fsync", f.path); err != nil {
		return err
	}
	return f.File.Sync()
}
