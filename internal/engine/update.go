package engine

import (
	"context"
	"fmt"
	"slices"

	"qof/internal/compile"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// ReplaceRegion replaces the text of one indexed region occurrence (say, one
// Reference) by newText, which must parse as the same non-terminal, and
// returns the instance over the edited document (its Document()).
//
// The paper defers index maintenance to the underlying text system (§1);
// this is that service, and an edit is correct exactly when it yields the
// instance a build of the edited document would. Regions before the edit
// are kept, regions after it shifted and enclosing ones stretched, and
// word-index positions kept, shifted or dropped; what lies inside is
// extracted again by Grammar.Regions, the build's own extractor, over the
// replacement alone where the instance can decide every scope — so the
// parse stays proportional to the edit, not to the file. (The suffix array,
// whose order after an edit changes globally exactly as in PAT, is lazy and
// the new instance builds its own on first substring search.)
func ReplaceRegion(cat *compile.Catalog, in *index.Instance, nt string, r region.Region, newText string) (*index.Instance, error) {
	return edit(cat, in, nt, r, r, &newText)
}

// InsertAfter inserts newText, a complete occurrence of the same
// non-terminal valid in that position (with its separator, if the
// repetition has one), immediately after an indexed region of the name.
func InsertAfter(cat *compile.Catalog, in *index.Instance, nt string, r region.Region, newText string) (*index.Instance, error) {
	return edit(cat, in, nt, r, region.Region{Start: r.End, End: r.End}, &newText)
}

// DeleteRegion removes an indexed region's text (callers own separator
// hygiene) and parses nothing: a removal adds no structure and moves no
// region into or out of a scope.
func DeleteRegion(cat *compile.Catalog, in *index.Instance, nt string, r region.Region) (*index.Instance, error) {
	return edit(cat, in, nt, r, r, nil)
}

// edit is every edit: old — the indexed nt region r, or the empty region
// after it for an insertion — becomes *newText, or goes when newText is nil.
// The word index is spliced over old, and every region set around the range
// reextract extracts again.
func edit(cat *compile.Catalog, in *index.Instance, nt string, r, old region.Region, newText *string) (*index.Instance, error) {
	set, ok := in.Region(nt)
	if !ok {
		return nil, fmt.Errorf("engine: region name %q is not indexed", nt)
	}
	if !set.Contains(r) {
		return nil, fmt.Errorf("engine: %v is not an indexed %s region", r, nt)
	}
	var with string
	if newText != nil {
		with = *newText
	}
	content := in.Document().Content()
	doc := text.NewDocument(in.Document().Name(), content[:old.Start]+with+content[old.End:])
	// Positions in the edited document must fit a region before anything
	// is parsed at them; then every shifted position fits too.
	if err := index.CheckDocument(doc); err != nil {
		return nil, err
	}
	delta := int32(len(with)) - int32(old.Len())
	span, fresh := old, map[string]region.Set(nil)
	if newText != nil {
		var err error
		if span, fresh, err = reextract(cat, in, doc, nt, old, delta); err != nil {
			return nil, err
		}
	}
	sets, scopes := make(map[string]region.Set), make(map[string]string)
	for _, name := range in.Names() {
		spliced, err := spliceSet(in.MustRegion(name), span, delta)
		if err != nil {
			return nil, fmt.Errorf("engine: region index %q: %w", name, err)
		}
		sets[name], scopes[name] = spliced.Union(fresh[name]), in.Scope(name)
	}
	return index.New(in.Words().Splice(doc, int(old.Start), int(old.End), int(old.End+delta)), sets, scopes), nil
}

// reextract runs Grammar.Regions for every name of in over a range of the
// edited document, and returns the range as it was in the old one. The
// range is old, parsed as nt, unless the instance cannot decide a scope
// there: one not indexed globally from which the RIG has a path down to nt,
// so that an occurrence of it may enclose old unseen. Then the edit must
// still parse as nt on its own, and the range widens to the smallest region
// enclosing old of a globally indexed name no such scope can enclose, or to
// the root over the whole document. In the spec Regions runs under, a scoped
// name whose scope has a globally indexed occurrence enclosing the range is
// a plain name: everything the parse sees is in scope.
func reextract(cat *compile.Catalog, in *index.Instance, doc *text.Document, nt string, old region.Region, delta int32) (region.Region, map[string]region.Set, error) {
	g, ctx := cat.Grammar, context.Background()
	global := func(name string) bool { return in.Has(name) && in.Scope(name) == "" }
	var blind []string
	for _, name := range in.Names() {
		if w := in.Scope(name); w != "" && !global(w) && cat.RIG.HasPath(w, nt) {
			blind = append(blind, w)
		}
	}
	sym, span := nt, old
	if len(blind) > 0 {
		if _, _, err := g.Regions(ctx, doc, grammar.IndexSpec{Names: []string{nt}}, nt, old.Start, old.End+delta); err != nil {
			return span, nil, fmt.Errorf("engine: new text does not parse as %s: %w", nt, err)
		}
		sym, span = g.Root(), region.Region{End: int32(in.Document().Len())}
		for _, name := range in.Names() {
			if !global(name) || slices.ContainsFunc(blind, func(w string) bool { return cat.RIG.HasPath(w, name) }) {
				continue
			}
			for _, x := range in.MustRegion(name).Regions() {
				if encloses(x, old) && x.Len() < span.Len() {
					sym, span = name, x
				}
			}
		}
	}
	var spec grammar.IndexSpec
	for _, name := range in.Names() {
		w := in.Scope(name)
		if w != "" && !(global(w) && slices.ContainsFunc(in.MustRegion(w).Regions(), func(x region.Region) bool { return encloses(x, span) })) {
			spec.Scoped = append(spec.Scoped, grammar.ScopedName{Name: name, Within: w})
		} else {
			spec.Names = append(spec.Names, name)
		}
	}
	named, scoped, err := g.Regions(ctx, doc, spec, sym, span.Start, span.End+delta)
	if err != nil {
		return span, nil, fmt.Errorf("engine: the edited %s does not parse as %s: %w", nt, sym, err)
	}
	for i, sc := range spec.Scoped {
		named[sc.Name] = scoped[i]
	}
	return span, named, nil
}

// encloses reports whether x strictly includes the edited range e and
// reaches past it on both sides where e is empty: the regions spliceSet
// stretches.
func encloses(x, e region.Region) bool {
	return x.End > e.Start && x.Start < e.End && x.StrictlyIncludes(e)
}

// spliceSet maps one region set across the edited range: keep regions
// before, drop regions inside it (the re-extraction supplies them), shift
// regions after, and stretch regions enclosing it.
func spliceSet(s region.Set, span region.Region, delta int32) (region.Set, error) {
	var out []region.Region
	for _, x := range s.Regions() {
		switch {
		case x.End <= span.Start:
			out = append(out, x)
		case x.Start >= span.End:
			out = append(out, region.Region{Start: x.Start + delta, End: x.End + delta})
		case encloses(x, span):
			out = append(out, region.Region{Start: x.Start, End: x.End + delta})
		case span.Includes(x):
			// Inside the range (including the range itself): superseded
			// by the re-extraction.
		default:
			return region.Empty, fmt.Errorf("region %v partially overlaps the edit %v", x, span)
		}
	}
	return region.FromRegions(out), nil
}
