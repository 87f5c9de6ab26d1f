package main

import (
	"fmt"
	"strconv"
	"strings"

	"proger"
)

// The parsers below read the -block, -rule and -mem-budget flags the
// way cmd/proger does, so the traced run resolves with exactly the
// families and matcher the measured CLI runs use (family names and
// indexes included).

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ";") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func parseFamilies(schema *proger.Schema, specs []string) (proger.Families, error) {
	fams := make(proger.Families, 0, len(specs))
	for i, spec := range specs {
		attr, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("bad -block %q", spec)
		}
		idx := schema.Index(attr)
		if idx < 0 {
			return nil, fmt.Errorf("-block %q: attribute %q not in schema", spec, attr)
		}
		kind := proger.KeyPrefix
		if kindName, lens, hasKind := strings.Cut(rest, ":"); hasKind {
			switch kindName {
			case "prefix":
			case "soundex":
				kind = proger.KeySoundex
			default:
				return nil, fmt.Errorf("-block %q: unknown key kind %q", spec, kindName)
			}
			rest = lens
		}
		var lens []int
		for _, p := range strings.Split(rest, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("-block %q: bad prefix length %q", spec, p)
			}
			lens = append(lens, v)
		}
		fams = append(fams, &proger.Family{
			Name:       fmt.Sprintf("F%d(%s)", i+1, attr),
			Attr:       idx,
			PrefixLens: lens,
			Index:      i + 1,
			Kind:       kind,
		})
	}
	return fams, fams.Validate()
}

func parseMatcher(schema *proger.Schema, specs []string, threshold float64) (*proger.Matcher, error) {
	kinds := map[string]proger.SimKind{
		"edit":    proger.EditDistance,
		"exact":   proger.ExactMatch,
		"jaro":    proger.JaroWinklerSim,
		"jaccard": proger.JaccardQ2,
		"cosine":  proger.TokenCosine,
	}
	rules := make([]proger.Rule, 0, len(specs))
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 && len(parts) != 4 {
			return nil, fmt.Errorf("bad -rule %q", spec)
		}
		idx := schema.Index(parts[0])
		kind, ok := kinds[parts[1]]
		if idx < 0 || !ok {
			return nil, fmt.Errorf("bad -rule %q: unknown attribute or kind", spec)
		}
		weight, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("-rule %q: bad weight", spec)
		}
		rule := proger.Rule{Attr: idx, Kind: kind, Weight: weight}
		if len(parts) == 4 {
			if rule.MaxChars, err = strconv.Atoi(parts[3]); err != nil || rule.MaxChars < 1 {
				return nil, fmt.Errorf("-rule %q: bad maxchars", spec)
			}
		}
		rules = append(rules, rule)
	}
	return proger.NewMatcher(threshold, rules...)
}

func parseMechanism(name string) (proger.Mechanism, error) {
	switch name {
	case "sn":
		return proger.SN, nil
	case "psnm":
		return proger.PSNM, nil
	}
	return nil, fmt.Errorf("unknown mechanism %q", name)
}

// parseSize reads a byte size with an optional K/M/G suffix; "" is 0.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad -mem-budget %q", s)
	}
	return v * mult, nil
}
