// Package vfs is the one door through which the durable layers (wal,
// ckpt, chunkstore) change the disk, so that a test can wrap OS to fail or
// record the very calls a crash falls between; reads stay on package os.
// Publish is the one atomic publication of a file.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// FS is the mutating half of a file system; SyncDir makes the creates,
// renames and removes in a directory durable.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	SyncDir(dir string) error
}

// File is an open file, as the WAL's active segment and a publish use it.
type File interface {
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OS is the operating system's file system, the only FS outside tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// tmpTag marks this process's tmp files, and tmpSeq keeps them apart.
// Publish creates a tmp file with O_EXCL, so a bare .tmp<seq> could meet
// the leftover of a process killed mid-publish, and fail a checkpoint
// re-published at the same LSN with EEXIST.
var (
	tmpTag = fmt.Sprintf(".tmp%d-%x.", os.Getpid(), time.Now().UnixNano())
	tmpSeq atomic.Uint64
)

// Publish puts what write produces at path so that a crash leaves the old
// file or the new one there, never a torn one: tmp file, write, fsync,
// close, rename over path, directory fsync. A failure before the rename
// removes the tmp file; one after it is not undone, as path may have
// named a file before that a remove would lose too.
func Publish(fsys FS, path string, write func(io.Writer) error) error {
	tmp := fmt.Sprintf("%s%s%d", path, tmpTag, tmpSeq.Add(1))
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// RemoveFiles removes each named file of dir, then syncs dir so that the
// unlinks are durable. It keeps going past a failure and returns the
// first error; a file already gone counts as removed.
func RemoveFiles(fsys FS, dir string, names []string) error {
	var first error
	for _, name := range names {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	if err := fsys.SyncDir(dir); first == nil {
		first = err
	}
	return first
}

// SplitTmp reports whether the bare file name is a tmp file of a publish
// of final: final plus ".tmp" and nothing but hex digits, dashes and
// dots.
func SplitTmp(file string) (final string, ok bool) {
	i := strings.LastIndex(file, ".tmp")
	if i < 0 || strings.Trim(file[i+len(".tmp"):], "0123456789abcdef-.") != "" {
		return "", false
	}
	return file[:i], true
}
