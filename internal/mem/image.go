package mem

// Image is the durable NVM content after a power cut: a sparse 8-byte word
// array. Recovery reads it through Word and must treat every absence as a
// write that never reached the array. The fuzz harness mutates images
// directly through Delete and FlipBit to model corruption beyond what the
// injector draws.
type Image struct {
	words *WordMap
}

// NewImage wraps a word table as an image; nil gives an empty image. The
// image takes ownership of words.
func NewImage(words *WordMap) *Image {
	if words == nil {
		words = new(WordMap)
	}
	return &Image{words: words}
}

// Word returns the persisted 8-byte word at addr and whether it exists.
func (im *Image) Word(addr uint64) (uint64, bool) {
	if im == nil {
		return 0, false
	}
	return im.words.Get(wordAlign(addr))
}

// Len returns how many persisted words the image holds.
func (im *Image) Len() int {
	if im == nil {
		return 0
	}
	return im.words.Len()
}

// SortedAddrs returns every persisted word address in ascending order.
func (im *Image) SortedAddrs() []uint64 {
	if im == nil {
		return nil
	}
	return im.words.SortedKeys()
}

// Delete removes a persisted word (corruption modelling: a write that was
// thought durable but never reached the array).
func (im *Image) Delete(addr uint64) { im.words.Delete(wordAlign(addr)) }

// FlipBit flips one bit of a persisted word; it is a no-op when the word
// does not exist.
func (im *Image) FlipBit(addr uint64, bit uint) {
	a := wordAlign(addr)
	if v, ok := im.words.Get(a); ok {
		im.words.Put(a, v^(1<<(bit&63)))
	}
}
