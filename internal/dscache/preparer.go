package dscache

import (
	"context"

	"trainbox/internal/dataprep"
	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
	"trainbox/internal/storage"
)

// Decode fingerprints. The cached representation is the *decode*
// output, which depends only on the stored bytes and the modality's
// decoder — none of the augmentation config (crop, mirror, noise, mel
// masks) touches it. The fingerprint is therefore the decoder identity:
// jobs with different augmentation configs share entries, and only a
// decode-affecting change (a different codec) would fork the cache.
const (
	// ImageFingerprint keys cached JPEG decode outputs.
	ImageFingerprint = "image/jpeg"
	// AudioFingerprint keys cached PCM16 decode outputs.
	AudioFingerprint = "audio/pcm16"
)

// ImagePreparer is dataprep.ImagePreparer with the JPEG decode served
// through a shared cache tier: the first consumer of a key decodes and
// populates (single-flight), every other consumer reuses the cached
// pixels and runs only its own seeded augmentation tail. Bit-identical
// to the uncached preparer for equal seeds.
type ImagePreparer struct {
	Cache  *Cache
	Config dataprep.ImageConfig
}

// Prepare implements dataprep.Preparer.
func (p ImagePreparer) Prepare(obj storage.Object, seed int64, s *dataprep.Scratch) dataprep.Prepared {
	h, err := p.Cache.Acquire(context.Background(), obj.Key, ImageFingerprint, func(pool *memframe.Set) (Decoded, error) {
		// Decode into a throwaway image, then move the pixels into a
		// pooled payload buffer of the exact decoded size: the decode
		// allocation is the rare, amortized event; the resident buffer
		// recycles through the cache's pools on eviction.
		var tmp imgproc.Image
		if err := imgproc.DecodeJPEGInto(&tmp, obj.Data); err != nil {
			return Decoded{}, err
		}
		pix := pool.U8.Get(len(tmp.Pix))
		copy(pix, tmp.Pix)
		return Decoded{Image: &imgproc.Image{W: tmp.W, H: tmp.H, Pix: pix}}, nil
	})
	if err != nil {
		return dataprep.Prepared{Key: obj.Key, Label: obj.Label, Err: err}
	}
	defer h.Release()
	t, err := dataprep.PrepareImageDecoded(h.Image(), p.Config, seed, s)
	return dataprep.Prepared{Key: obj.Key, Label: obj.Label, Image: t, Err: err}
}

// AudioPreparer is dataprep.AudioPreparer with the PCM decode served
// through a shared cache tier. The cached signal is read-only; the
// augmentation tail copies it into its scratch before adding noise.
// Bit-identical to the uncached preparer for equal seeds.
type AudioPreparer struct {
	Cache  *Cache
	Config dataprep.AudioConfig
}

// Prepare implements dataprep.Preparer.
func (p AudioPreparer) Prepare(obj storage.Object, seed int64, s *dataprep.Scratch) dataprep.Prepared {
	h, err := p.Cache.Acquire(context.Background(), obj.Key, AudioFingerprint, func(pool *memframe.Set) (Decoded, error) {
		buf := pool.F64.Get(len(obj.Data) / 2)
		sig, err := dsp.PCM16DecodeInto(buf, obj.Data)
		if err != nil {
			pool.F64.Put(buf)
			return Decoded{}, err
		}
		return Decoded{Signal: sig}, nil
	})
	if err != nil {
		return dataprep.Prepared{Key: obj.Key, Label: obj.Label, Err: err}
	}
	defer h.Release()
	sp, err := dataprep.PrepareAudioDecoded(h.Signal(), p.Config, seed, s)
	return dataprep.Prepared{Key: obj.Key, Label: obj.Label, Audio: sp, Err: err}
}

// PreparerFingerprint returns the cache fingerprint a preparer's
// decodes are keyed under, or "" for preparers with no cached form.
func PreparerFingerprint(p dataprep.Preparer) string {
	switch p.(type) {
	case ImagePreparer, dataprep.ImagePreparer:
		return ImageFingerprint
	case AudioPreparer, dataprep.AudioPreparer:
		return AudioFingerprint
	}
	return ""
}

// WrapPreparer returns the cache-backed equivalent of p: the CPU image
// and audio preparers map to their dscache counterparts (bit-identical
// for equal seeds), and already-cached preparers are re-targeted at c.
// Other preparers come back unchanged with ok=false.
func WrapPreparer(c *Cache, p dataprep.Preparer) (wrapped dataprep.Preparer, ok bool) {
	switch q := p.(type) {
	case dataprep.ImagePreparer:
		return ImagePreparer{Cache: c, Config: q.Config}, true
	case dataprep.AudioPreparer:
		return AudioPreparer{Cache: c, Config: q.Config}, true
	case ImagePreparer:
		return ImagePreparer{Cache: c, Config: q.Config}, true
	case AudioPreparer:
		return AudioPreparer{Cache: c, Config: q.Config}, true
	}
	return p, false
}

// PrepareBatch prepares one epoch of keys on exec, resident-first when
// exec is bound to a cache tier (Bind): keys whose decode is resident
// go ahead of the rest (Cache.OrderKeys), so warm entries are consumed
// before the misses' populates evict them, and the result comes back
// in keys' order. Per-sample augmentation depends only on (dataset
// seed, key, epoch), never on position, so the batch is bit-identical
// to an in-order pass. An unbound exec prepares keys in order.
func PrepareBatch(ctx context.Context, exec *dataprep.Executor, store *storage.Store, keys []string, epoch int) ([]dataprep.Prepared, error) {
	prep := exec.Preparer()
	var c *Cache
	switch q := prep.(type) {
	case ImagePreparer:
		c = q.Cache
	case AudioPreparer:
		c = q.Cache
	}
	if c == nil {
		return exec.PrepareBatchContext(ctx, store, keys, epoch)
	}
	ps, err := exec.PrepareBatchContext(ctx, store, c.OrderKeys(keys, PreparerFingerprint(prep)), epoch)
	if err != nil {
		return nil, err
	}
	return restoreOrder(ps, keys), nil
}

// restoreOrder re-sequences one batch's prepared samples back into
// keys' order after a resident-first pass.
func restoreOrder(ps []dataprep.Prepared, keys []string) []dataprep.Prepared {
	pos := make(map[string][]int, len(keys))
	for i, k := range keys {
		pos[k] = append(pos[k], i)
	}
	out := make([]dataprep.Prepared, len(ps))
	for _, p := range ps {
		q := pos[p.Key]
		if len(q) == 0 {
			// A key outside the requested set: the permutation invariant
			// broke somewhere upstream — fall back to prepared order
			// rather than dropping the sample (and its pooled buffers).
			return ps
		}
		out[q[0]] = p
		pos[p.Key] = q[1:]
	}
	return out
}

// Bind routes an executor's prepare path through c by swapping its
// preparer for the cache-backed equivalent (see WrapPreparer), and
// returns the fingerprint its decodes are keyed under. ok is false —
// and the executor untouched — when its preparer has no cached form.
// Bind before the executor serves traffic.
func Bind(c *Cache, exec *dataprep.Executor) (fp string, ok bool) {
	wrapped, ok := WrapPreparer(c, exec.Preparer())
	if !ok {
		return "", false
	}
	exec.WithPreparer(wrapped)
	return PreparerFingerprint(wrapped), true
}
