package hostos

import (
	"fmt"
	"sort"
	"sync"
)

// VFS is the kernel's in-memory filesystem: a flat namespace of regular
// files, enough for the fstime and MCrypt workloads and the io_uring
// read/write path.
type VFS struct {
	mu    sync.RWMutex
	files map[string]*Inode
}

// NewVFS returns an empty filesystem.
func NewVFS() *VFS {
	return &VFS{files: make(map[string]*Inode)}
}

// Inode is one regular file's contents.
type Inode struct {
	mu   sync.RWMutex
	data []byte
}

// Size returns the file length.
func (ino *Inode) Size() int64 {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return int64(len(ino.data))
}

// ReadAt copies file bytes at off into p, returning the count (0 at EOF).
func (ino *Inode) ReadAt(p []byte, off int64) int {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if off < 0 || off >= int64(len(ino.data)) {
		return 0
	}
	return copy(p, ino.data[off:])
}

// WriteAt stores p at off, growing the file as needed.
func (ino *Inode) WriteAt(p []byte, off int64) int {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if off < 0 {
		return 0
	}
	end := off + int64(len(p))
	if end > int64(len(ino.data)) {
		grown := make([]byte, end)
		copy(grown, ino.data)
		ino.data = grown
	}
	copy(ino.data[off:end], p)
	return len(p)
}

// Truncate resizes the file.
func (ino *Inode) Truncate(n int64) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n <= int64(len(ino.data)) {
		ino.data = ino.data[:n]
		return
	}
	grown := make([]byte, n)
	copy(grown, ino.data)
	ino.data = grown
}

// Lookup returns the inode at path.
func (v *VFS) Lookup(path string) (*Inode, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ino, ok := v.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	return ino, nil
}

// Create makes (or truncates) the file at path.
func (v *VFS) Create(path string) *Inode {
	v.mu.Lock()
	defer v.mu.Unlock()
	ino, ok := v.files[path]
	if ok {
		ino.Truncate(0)
		return ino
	}
	ino = &Inode{}
	v.files[path] = ino
	return ino
}

// Unlink removes the file at path.
func (v *VFS) Unlink(path string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	delete(v.files, path)
	return nil
}

// List returns all paths in sorted order.
func (v *VFS) List() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	paths := make([]string, 0, len(v.files))
	for p := range v.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// WriteFile creates path with the given contents (test/workload setup).
func (v *VFS) WriteFile(path string, data []byte) {
	ino := v.Create(path)
	ino.WriteAt(data, 0)
}

// ReadFile returns a copy of the file's contents.
func (v *VFS) ReadFile(path string) ([]byte, error) {
	ino, err := v.Lookup(path)
	if err != nil {
		return nil, err
	}
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	out := make([]byte, len(ino.data))
	copy(out, ino.data)
	return out, nil
}

// File is an open file description: an inode plus a cursor.
type File struct {
	ino   *Inode
	path  string
	mu    sync.Mutex
	off   int64
	flags int
}

// Open flags.
const (
	ORdonly = 0
	OWronly = 1
	ORdwr   = 2
	OCreate = 1 << 6
	OTrunc  = 1 << 9
)
