// Package kms implements the §3.2 encryption design: "we generate
// block-specific encryption keys (to avoid injection attacks from one block
// to another), wrap these with cluster-specific keys (to avoid injection
// attacks from one cluster to another), and further wrap these with a
// master key, stored by us off-network or via the customer-specified HSM.
// ... Key rotation ... only involves re-encrypting block keys or cluster
// keys, not the entire database. Repudiation ... only involves losing
// access to the customer's key."
//
// The hierarchy is three levels of AES-256-GCM envelopes:
//
//	master key (HSM / off-network)  wraps  cluster key  wraps  block keys
//
// Each sealed block binds its identity (the block's content hash or ID) as
// GCM additional authenticated data, so a ciphertext moved to another block
// position fails to open — the injection attack the paper calls out.
package kms

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// KeySize is the AES-256 key length.
const KeySize = 32

// Master is the customer's root of trust — the paper's HSM or off-network
// key. Losing it is repudiation: every dependent ciphertext becomes
// unreadable.
type Master struct {
	mu  sync.RWMutex
	key []byte // nil after Repudiate
	gen int    // bumped on rotation
}

// NewMaster generates a master key.
func NewMaster() (*Master, error) {
	key, err := randomKey()
	if err != nil {
		return nil, err
	}
	return &Master{key: key, gen: 1}, nil
}

// Rotate replaces the master key and returns the new generation. Callers
// must rewrap their cluster keys (and only those — not the data).
func (m *Master) Rotate() (int, error) {
	key, err := randomKey()
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key == nil {
		return 0, fmt.Errorf("kms: master key repudiated")
	}
	m.key = key
	m.gen++
	return m.gen, nil
}

// Repudiate destroys the master key — the paper's instant crypto-erase.
func (m *Master) Repudiate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.key = nil
}

func (m *Master) currentKey() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.key == nil {
		return nil, fmt.Errorf("kms: master key repudiated")
	}
	return m.key, nil
}

// WrapClusterKey seals a cluster key under the master key.
func (m *Master) WrapClusterKey(clusterKey []byte) ([]byte, error) {
	key, err := m.currentKey()
	if err != nil {
		return nil, err
	}
	return seal(key, clusterKey, []byte("cluster-key"))
}

// UnwrapClusterKey opens a wrapped cluster key.
func (m *Master) UnwrapClusterKey(wrapped []byte) ([]byte, error) {
	key, err := m.currentKey()
	if err != nil {
		return nil, err
	}
	return open(key, wrapped, []byte("cluster-key"))
}

// ClusterCipher encrypts and decrypts block payloads for one cluster. The
// cluster key lives only in memory; its wrapped form is what persists.
type ClusterCipher struct {
	mu         sync.RWMutex
	master     *Master
	clusterKey []byte
	wrapped    []byte
	// oldKeys holds superseded cluster keys until every envelope has been
	// rewrapped under the current one.
	oldKeys [][]byte
}

// NewClusterCipher creates a fresh cluster key wrapped under the master.
func NewClusterCipher(master *Master) (*ClusterCipher, error) {
	clusterKey, err := randomKey()
	if err != nil {
		return nil, err
	}
	wrapped, err := master.WrapClusterKey(clusterKey)
	if err != nil {
		return nil, err
	}
	return &ClusterCipher{master: master, clusterKey: clusterKey, wrapped: wrapped}, nil
}

// OpenClusterCipher reconstructs a cipher from its persisted wrapped key,
// e.g. when restoring a cluster.
func OpenClusterCipher(master *Master, wrapped []byte) (*ClusterCipher, error) {
	clusterKey, err := master.UnwrapClusterKey(wrapped)
	if err != nil {
		return nil, fmt.Errorf("kms: cannot unwrap cluster key: %w", err)
	}
	return &ClusterCipher{master: master, clusterKey: clusterKey, wrapped: wrapped}, nil
}

// WrappedKey returns the persistable wrapped cluster key.
func (c *ClusterCipher) WrappedKey() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]byte(nil), c.wrapped...)
}

// RotateClusterKey generates a new cluster key and rewraps it under the
// master. Existing sealed blocks keep their own block keys; only the key
// envelopes must be rewritten (SealedBlock.Rewrap), never the data.
func (c *ClusterCipher) RotateClusterKey() error {
	newKey, err := randomKey()
	if err != nil {
		return err
	}
	wrapped, err := c.master.WrapClusterKey(newKey)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.oldKeys = append(c.oldKeys, c.clusterKey)
	c.clusterKey = newKey
	c.wrapped = wrapped
	c.mu.Unlock()
	return nil
}

// RewrapMaster refreshes the wrapped cluster key after a master rotation.
func (c *ClusterCipher) RewrapMaster() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wrapped, err := c.master.WrapClusterKey(c.clusterKey)
	if err != nil {
		return err
	}
	c.wrapped = wrapped
	return nil
}

// Seal encrypts a block payload under a fresh block-specific key. blockAAD
// binds the ciphertext to the block's identity: opening it under any other
// identity fails.
//
// Envelope layout: [4-byte wrapped-key length][wrapped block key][payload
// ciphertext].
func (c *ClusterCipher) Seal(blockAAD, plaintext []byte) ([]byte, error) {
	blockKey, err := randomKey()
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	clusterKey := c.clusterKey
	c.mu.RUnlock()
	wrappedBlockKey, err := seal(clusterKey, blockKey, blockAAD)
	if err != nil {
		return nil, err
	}
	body, err := seal(blockKey, plaintext, blockAAD)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4, 4+len(wrappedBlockKey)+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(wrappedBlockKey)))
	out = append(out, wrappedBlockKey...)
	out = append(out, body...)
	return out, nil
}

// Open decrypts a sealed block. The same blockAAD used at Seal time is
// required. Old cluster keys retained by RotateClusterKey are tried for
// envelopes not yet rewrapped.
func (c *ClusterCipher) Open(blockAAD, envelope []byte) ([]byte, error) {
	wrappedBlockKey, body, err := splitEnvelope(envelope)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	keys := append([][]byte{c.clusterKey}, c.oldKeys...)
	c.mu.RUnlock()
	var blockKey []byte
	for _, k := range keys {
		if blockKey, err = open(k, wrappedBlockKey, blockAAD); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("kms: cannot unwrap block key: %w", err)
	}
	return open(blockKey, body, blockAAD)
}

// Rewrap re-encrypts only the envelope's block key under the current
// cluster key — the cheap rotation path the paper highlights. The payload
// ciphertext is untouched.
func (c *ClusterCipher) Rewrap(blockAAD, envelope []byte) ([]byte, error) {
	wrappedBlockKey, body, err := splitEnvelope(envelope)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	current := c.clusterKey
	keys := append([][]byte{current}, c.oldKeys...)
	c.mu.RUnlock()
	var blockKey []byte
	for _, k := range keys {
		if blockKey, err = open(k, wrappedBlockKey, blockAAD); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("kms: cannot unwrap block key: %w", err)
	}
	rewrapped, err := seal(current, blockKey, blockAAD)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4, 4+len(rewrapped)+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(rewrapped)))
	out = append(out, rewrapped...)
	out = append(out, body...)
	return out, nil
}

func splitEnvelope(envelope []byte) (wrappedKey, body []byte, err error) {
	if len(envelope) < 4 {
		return nil, nil, fmt.Errorf("kms: short envelope")
	}
	n := binary.BigEndian.Uint32(envelope)
	if int(n) > len(envelope)-4 {
		return nil, nil, fmt.Errorf("kms: corrupt envelope")
	}
	return envelope[4 : 4+n], envelope[4+n:], nil
}

// seal encrypts plaintext with AES-256-GCM under key, binding aad.
func seal(key, plaintext, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, plaintext, aad), nil
}

// open decrypts a seal() output.
func open(key, sealed, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, fmt.Errorf("kms: short ciphertext")
	}
	nonce, ct := sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():]
	return gcm.Open(nil, nonce, ct, aad)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func randomKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, err
	}
	return key, nil
}
