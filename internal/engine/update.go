package engine

import (
	"fmt"

	"qof/internal/compile"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// ReplaceRegion applies an in-place edit to the document: the text of one
// indexed region occurrence (say, one Reference) is replaced by newText,
// which must parse as the same non-terminal. It returns a new document and
// a new index instance reflecting the edit.
//
// The paper defers index maintenance to the underlying text system ("we
// assume that this is a service given by the underlying text indexing
// system", §1); this is that service: only the replacement text is parsed
// and re-tokenized — regions before the edit are kept, regions after it
// are shifted, enclosing regions are widened or narrowed, and word-index
// positions are kept, shifted or dropped by the edit's byte delta — so the
// dominant costs of indexing stay proportional to the edit, not to the
// file. (The sistring and suffix arrays, whose order after an edit changes
// globally exactly as in PAT, are lazy and rebuild on first prefix/substring
// search.)
func ReplaceRegion(cat *compile.Catalog, in *index.Instance, nt string, r region.Region, newText string) (*text.Document, *index.Instance, error) {
	set, ok := in.Region(nt)
	if !ok {
		return nil, nil, fmt.Errorf("engine: region name %q is not indexed", nt)
	}
	if !set.Contains(r) {
		return nil, nil, fmt.Errorf("engine: %v is not an indexed %s region", r, nt)
	}
	content := in.Document().Content()
	newDoc, err := editedDocument(in, content[:r.Start]+newText+content[r.End:])
	if err != nil {
		return nil, nil, err
	}
	delta := len(newText) - r.Len()

	// Parse only the replacement, at its final position.
	subtree, err := cat.Grammar.ParseAs(newDoc, nt, r.Start, r.Start+int32(len(newText)))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: replacement does not parse as %s: %w", nt, err)
	}
	return spliceInstance(cat, in, newDoc, subtree, r, delta)
}

// InsertAfter inserts newText immediately after an indexed region of the
// given name, parsing only the insertion. The text must be a complete
// occurrence of the same non-terminal valid in that position (for
// repetition contexts with a separator, the caller includes it). Like
// ReplaceRegion it returns a new document and instance; correctness is
// guaranteed by construction for separator-free repetitions and verified in
// general by the caller's tests against a rebuild.
func InsertAfter(cat *compile.Catalog, in *index.Instance, nt string, r region.Region, newText string) (*text.Document, *index.Instance, error) {
	set, ok := in.Region(nt)
	if !ok {
		return nil, nil, fmt.Errorf("engine: region name %q is not indexed", nt)
	}
	if !set.Contains(r) {
		return nil, nil, fmt.Errorf("engine: %v is not an indexed %s region", r, nt)
	}
	content := in.Document().Content()
	at := r.End
	newDoc, err := editedDocument(in, content[:at]+newText+content[at:])
	if err != nil {
		return nil, nil, err
	}

	subtree, err := cat.Grammar.ParseAs(newDoc, nt, at, at+int32(len(newText)))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: insertion does not parse as %s: %w", nt, err)
	}
	// An insertion is a replacement of the empty region [at, at).
	return spliceInstance(cat, in, newDoc, subtree, region.Region{Start: at, End: at}, len(newText))
}

// DeleteRegion removes an indexed region's text entirely (plus nothing
// else: callers own separator hygiene). No parsing happens at all — removal
// cannot introduce new structure; regions inside the deleted span vanish,
// later regions shift, and enclosing regions shrink.
func DeleteRegion(cat *compile.Catalog, in *index.Instance, nt string, r region.Region) (*text.Document, *index.Instance, error) {
	set, ok := in.Region(nt)
	if !ok {
		return nil, nil, fmt.Errorf("engine: region name %q is not indexed", nt)
	}
	if !set.Contains(r) {
		return nil, nil, fmt.Errorf("engine: %v is not an indexed %s region", r, nt)
	}
	content := in.Document().Content()
	newDoc, err := editedDocument(in, content[:r.Start]+content[r.End:])
	if err != nil {
		return nil, nil, err
	}
	return spliceInstance(cat, in, newDoc, nil, r, -r.Len())
}

// editedDocument is in's document with the edited content, refused when
// the edit grew it past the limit: positions in it must fit a region
// before anything is parsed at them.
func editedDocument(in *index.Instance, content string) (*text.Document, error) {
	doc := text.NewDocument(in.Document().Name(), content)
	if err := index.CheckDocument(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// spliceInstance rebuilds the instance around an edit: the word index is
// spliced (only the edit window is re-tokenized), regions are spliced per
// spliceSet, and the (possibly nil) freshly parsed subtree contributes the
// replacement regions. newDoc has passed index.CheckDocument.
func spliceInstance(cat *compile.Catalog, in *index.Instance, newDoc *text.Document, subtree *grammar.Node, edit region.Region, delta int) (*text.Document, *index.Instance, error) {
	newIn := index.SpliceInstance(in, newDoc, int(edit.Start), int(edit.End), int(edit.End)+delta)
	var fresh map[string]region.Set
	if subtree != nil {
		fresh = grammar.ExtractRegions(subtree, in.Names()...)
	}
	for _, name := range in.Names() {
		spliced, err := spliceSet(in.MustRegion(name), edit, delta)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: region index %q: %w", name, err)
		}
		var add region.Set
		if subtree != nil {
			add = fresh[name]
			if within := in.Scope(name); within != "" {
				add = scopedSubtreeRegions(in, subtree, name, within, edit)
			}
		}
		merged := spliced.Union(add)
		if within := in.Scope(name); within != "" {
			newIn.DefineScoped(name, within, merged)
		} else {
			newIn.Define(name, merged)
		}
	}
	return newDoc, newIn, nil
}

// spliceSet maps one region set across the edit: keep regions before, drop
// regions inside the replaced region (the subtree re-supplies them), shift
// regions after, and stretch regions enclosing the edit.
func spliceSet(s region.Set, edit region.Region, delta int) (region.Set, error) {
	d := int32(delta) // the edited document passed CheckDocument, so every shifted position fits
	var out []region.Region
	for _, x := range s.Regions() {
		switch {
		case x.End <= edit.Start:
			out = append(out, x)
		case x.Start >= edit.End:
			out = append(out, region.Region{Start: x.Start + d, End: x.End + d})
		case edit.Includes(x):
			// Inside the replaced region (including the region itself):
			// superseded by the re-parsed subtree.
		case x.StrictlyIncludes(edit):
			out = append(out, region.Region{Start: x.Start, End: x.End + d})
		default:
			return region.Empty, fmt.Errorf("region %v partially overlaps the edit %v", x, edit)
		}
	}
	return region.FromRegions(out), nil
}

// scopedSubtreeRegions extracts the scoped name's regions from the
// replacement subtree: if the edit already sits inside a scope region, the
// whole subtree is in scope; otherwise only occurrences under scope
// regions inside the subtree qualify.
func scopedSubtreeRegions(in *index.Instance, subtree *grammar.Node, name, within string, edit region.Region) region.Set {
	if ws, ok := in.Region(within); ok {
		for _, w := range ws.Regions() {
			if w.StrictlyIncludes(edit) {
				return grammar.ExtractRegions(subtree, name)[name]
			}
		}
	}
	// The scope container may itself be part of the subtree; also cover
	// the case where the scope is not separately indexed by locating
	// scope occurrences syntactically.
	return grammar.ExtractScopedRegions(subtree, name, within)
}
