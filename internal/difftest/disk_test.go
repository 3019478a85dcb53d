package difftest

import (
	"bytes"
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

// call is one mutating call through the seam that took effect, as the
// trace holds it. A file is named by the number the trace gave it when it
// was created, so its writes and fsyncs follow it across a rename.
type call struct {
	op   string // create, write, truncate, fsync, rename, remove, mkdir or syncdir
	site string // the site the call was made at, "" if none
	path string // create, rename (the new name), remove, mkdir, syncdir
	from string // rename: the old name
	file int    // create, write, truncate, fsync
	off  int64  // write: where the bytes went; truncate: the new size
	data []byte // write
}

// diskFS is vfs.OS seen by the crash and fault modes. It names every call
// by the site of the durable layers it comes from, fails the nth call at
// one site once armed, and appends every mutating call that took effect
// to its trace, in the order the calls ran: it holds its lock across each
// one.
type diskFS struct {
	segBytes int64 // a WAL segment this large is being sealed

	mu        sync.Mutex
	want      fault
	nth, seen int
	fired     fired
	imaged    bool // an image was published since the last take
	trace     []call
	files     map[string]int // the file each path names
	sizes     []int64        // each file's size: every write lands at its end
}

func newDiskFS(segBytes int64) *diskFS {
	return &diskFS{segBytes: segBytes, files: make(map[string]int)}
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

// calls returns how many calls the trace holds so far.
func (d *diskFS) calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.trace)
}

// trip returns the error the call at site is to fail with, if any.
// Caller holds d.mu.
func (d *diskFS) trip(site string) error {
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
	if final, ok := vfs.SplitTmp(name); ok {
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
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	file, ok := d.files[name]
	if !ok {
		file = len(d.sizes)
		d.files[name], d.sizes = file, append(d.sizes, 0)
		d.trace = append(d.trace, call{op: "create", path: name, file: file})
	}
	return &diskFile{File: f, fs: d, path: name, file: file}, nil
}

func (d *diskFS) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	site := artifact(newpath) + "-rename"
	if err := d.trip(site); err != nil {
		return err
	}
	if err := vfs.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	d.files[newpath] = d.files[oldpath]
	delete(d.files, oldpath)
	d.trace = append(d.trace, call{op: "rename", site: site, path: newpath, from: oldpath})
	return nil
}

func (d *diskFS) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	site := ""
	if n := len(d.trace); n > 0 {
		prev := d.trace[n-1]
		if filepath.Dir(prev.path) == dir && (prev.op == "rename" || prev.op == "create" && artifact(prev.path) == "wal") {
			site = map[string]string{"wal": "segment", "pack": "pack", "image": "image"}[artifact(prev.path)] + "-dirsync"
		}
	}
	if err := d.trip(site); err != nil {
		return err
	}
	if err := vfs.OS.SyncDir(dir); err != nil {
		return err
	}
	d.trace = append(d.trace, call{op: "syncdir", site: site, path: dir})
	return nil
}

func (d *diskFS) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := vfs.OS.Remove(name); err != nil {
		return err
	}
	delete(d.files, name)
	d.trace = append(d.trace, call{op: "remove", path: name})
	return nil
}

func (d *diskFS) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := vfs.OS.Truncate(name, size); err != nil {
		return err
	}
	d.truncated(d.files[name], size)
	return nil
}

// truncated records a truncate of file. Caller holds d.mu.
func (d *diskFS) truncated(file int, size int64) {
	d.sizes[file] = size
	d.trace = append(d.trace, call{op: "truncate", file: file, off: size})
}

func (d *diskFS) MkdirAll(path string, perm os.FileMode) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, statErr := os.Stat(path)
	if err := vfs.OS.MkdirAll(path, perm); err != nil || statErr == nil {
		return err
	}
	d.trace = append(d.trace, call{op: "mkdir", path: path})
	return nil
}

// diskFile is a file opened through diskFS.
type diskFile struct {
	vfs.File
	fs   *diskFS
	path string // the name it was opened under
	file int
}

func (f *diskFile) Write(p []byte) (int, error) {
	d := f.fs
	d.mu.Lock()
	defer d.mu.Unlock()
	site := map[string]string{"wal": "wal-append", "pack": "pack-write"}[artifact(f.path)]
	n, err := 0, d.trip(site)
	if err == nil {
		n, err = f.File.Write(p)
	} else if d.want.mode == "short" {
		n, _ = f.File.Write(p[:len(p)/2])
	}
	if n > 0 {
		d.trace = append(d.trace, call{op: "write", site: site, file: f.file, off: d.sizes[f.file], data: bytes.Clone(p[:n])})
		d.sizes[f.file] += int64(n)
	}
	return n, err
}

func (f *diskFile) Truncate(size int64) error {
	d := f.fs
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	d.truncated(f.file, size)
	return nil
}

func (f *diskFile) Sync() error {
	d := f.fs
	d.mu.Lock()
	defer d.mu.Unlock()
	site := artifact(f.path) + "-fsync"
	if site == "wal-fsync" {
		// The door syncs the active segment, a seal the one that reached
		// the rotation threshold.
		site = "wal-sync"
		if d.sizes[f.file] >= d.segBytes {
			site = "wal-seal"
		}
	}
	if err := d.trip(site); err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	d.trace = append(d.trace, call{op: "fsync", site: site, file: f.file})
	return nil
}
