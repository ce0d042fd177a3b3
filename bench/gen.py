"""Seeded input generators for the benchmark.

Three kinds of input, all in the SUC/MAMBA tagsets of the bundled
``suc-mamba`` profile, and all a pure function of the seed:

* ``long_corpus``: 15-60-token dependency trees built from clauses, with
  subordinate, relative and coordinated clauses, PP chains and the
  pronoun / adverb / conjunctional-adverbial traffic of the fixture
  corpus.  Each sentence carries the set of themes planted in it, so the
  detector output can be checked against a construction-time gold.
* ``short_corpus``: 3-8-token sentences that each fire exactly one theme
  or none, with their gold.  The sentence table is a private copy of the
  single-theme corpus the test suite uses, so editing a test can never
  move the benchmark.
* ``korp_pages``: Korp-style JSON pages of long-tree hits with unique
  positions, a few of them with cyclic heads that the client must drop.

Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

# Theme identifiers as the CLI writes them.
INCOMP = "IncompSent"
IMP = "ImpAnaphora"
PN = "PNAnaphora"
ADV1 = "AdvAnaphora1"
ADV2 = "AdvAnaphora2"
STRUCT = "StructConn"
CEQ = "CEQAnswer"
THEMES = (INCOMP, IMP, PN, ADV1, ADV2, STRUCT, CEQ)


@dataclass
class GenSentence:
    """One generated sentence: CoNLL-U-shaped rows plus its gold themes.

    Each row is (form, lemma, pos, feats, head, deprel) with a 1-based
    head, 0 for the root and ``feats`` "" for none.
    """

    id: str
    rows: list[tuple[str, str, str, str, int, str]]
    themes: frozenset[str]

    def __len__(self) -> int:
        return len(self.rows)


def to_conllu(sentences: list[GenSentence]) -> str:
    blocks = []
    for s in sentences:
        lines = [f"# sent_id = {s.id}"]
        for i, (form, lemma, pos, feats, head, deprel) in enumerate(s.rows, start=1):
            lines.append(
                f"{i}\t{form}\t{lemma}\t{pos}\t_\t{feats or '_'}\t{head}\t{deprel}\t_\t_"
            )
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def to_gold(sentences: list[GenSentence]) -> str:
    return "".join(
        f"{s.id}\t{','.join(sorted(s.themes)) or '-'}\n" for s in sentences
    )


# --------------------------------------------------------------------------
# long trees

# lemma, gender, singular indefinite/definite, plural indefinite/definite
_NOUNS = [
    ("bok", "UTR", "bok", "boken", "böcker", "böckerna"),
    ("hus", "NEU", "hus", "huset", "hus", "husen"),
    ("stad", "UTR", "stad", "staden", "städer", "städerna"),
    ("bord", "NEU", "bord", "bordet", "bord", "borden"),
    ("brev", "NEU", "brev", "brevet", "brev", "breven"),
    ("lärare", "UTR", "lärare", "läraren", "lärare", "lärarna"),
    ("flicka", "UTR", "flicka", "flickan", "flickor", "flickorna"),
    ("pojke", "UTR", "pojke", "pojken", "pojkar", "pojkarna"),
    ("barn", "NEU", "barn", "barnet", "barn", "barnen"),
    ("skola", "UTR", "skola", "skolan", "skolor", "skolorna"),
    ("fönster", "NEU", "fönster", "fönstret", "fönster", "fönstren"),
    ("bil", "UTR", "bil", "bilen", "bilar", "bilarna"),
    ("vän", "UTR", "vän", "vännen", "vänner", "vännerna"),
    ("rum", "NEU", "rum", "rummet", "rum", "rummen"),
    ("resa", "UTR", "resa", "resan", "resor", "resorna"),
    ("land", "NEU", "land", "landet", "länder", "länderna"),
    ("fråga", "UTR", "fråga", "frågan", "frågor", "frågorna"),
    ("svar", "NEU", "svar", "svaret", "svar", "svaren"),
    ("kommun", "UTR", "kommun", "kommunen", "kommuner", "kommunerna"),
    ("regering", "UTR", "regering", "regeringen", "regeringar", "regeringarna"),
    ("företag", "NEU", "företag", "företaget", "företag", "företagen"),
    ("sjö", "UTR", "sjö", "sjön", "sjöar", "sjöarna"),
    ("skog", "UTR", "skog", "skogen", "skogar", "skogarna"),
    ("kvinna", "UTR", "kvinna", "kvinnan", "kvinnor", "kvinnorna"),
    ("man", "UTR", "man", "mannen", "män", "männen"),
    ("tidning", "UTR", "tidning", "tidningen", "tidningar", "tidningarna"),
    ("projekt", "NEU", "projekt", "projektet", "projekt", "projekten"),
    ("år", "NEU", "år", "året", "år", "åren"),
]
_PROPER = ["Anna", "Erik", "Maria", "Johan", "Stockholm", "Göteborg", "Lund", "Sverige"]
# lemma, common-gender form, neuter form, definite/plural form
_ADJECTIVES = [
    ("stor", "stor", "stort", "stora"),
    ("gammal", "gammal", "gammalt", "gamla"),
    ("ny", "ny", "nytt", "nya"),
    ("svensk", "svensk", "svenskt", "svenska"),
    ("viktig", "viktig", "viktigt", "viktiga"),
    ("vacker", "vacker", "vackert", "vackra"),
    ("röd", "röd", "rött", "röda"),
    ("lång", "lång", "långt", "långa"),
    ("enkel", "enkel", "enkelt", "enkla"),
    ("tidig", "tidig", "tidigt", "tidiga"),
]
# graded and participle attributes: form, lemma, pos, feats
_GRADED = [
    ("större", "stor", "JJ", "KOM|UTR/NEU|SIN/PLU|IND/DEF|NOM"),
    ("största", "stor", "JJ", "SUV|UTR/NEU|SIN/PLU|DEF|NOM"),
    ("nyare", "ny", "JJ", "KOM|UTR/NEU|SIN/PLU|IND/DEF|NOM"),
    ("äldsta", "gammal", "JJ", "SUV|UTR/NEU|SIN/PLU|DEF|NOM"),
    ("stängda", "stänga", "PC", "PRF|UTR/NEU|SIN/PLU|IND/DEF|NOM"),
    ("målade", "måla", "PC", "PRF|UTR/NEU|SIN/PLU|IND/DEF|NOM"),
    ("första", "första", "RO", "NOM"),
]
# passive finite verbs: form, lemma, feats
_PASSIVE = [
    ("läses", "läsa", "PRS|SFO"),
    ("byggdes", "bygga", "PRT|SFO"),
    ("diskuteras", "diskutera", "PRS|SFO"),
    ("visades", "visa", "PRT|SFO"),
]
# lemma, present, past, infinitive, supine
_TRANSITIVE = [
    ("läsa", "läser", "läste", "läsa", "läst"),
    ("skriva", "skriver", "skrev", "skriva", "skrivit"),
    ("köpa", "köper", "köpte", "köpa", "köpt"),
    ("se", "ser", "såg", "se", "sett"),
    ("bygga", "bygger", "byggde", "bygga", "byggt"),
    ("öppna", "öppnar", "öppnade", "öppna", "öppnat"),
    ("beskriva", "beskriver", "beskrev", "beskriva", "beskrivit"),
    ("diskutera", "diskuterar", "diskuterade", "diskutera", "diskuterat"),
    ("hitta", "hittar", "hittade", "hitta", "hittat"),
    ("visa", "visar", "visade", "visa", "visat"),
]
_INTRANSITIVE = [
    ("sova", "sover", "sov", "sova", "sovit"),
    ("komma", "kommer", "kom", "komma", "kommit"),
    ("gå", "går", "gick", "gå", "gått"),
    ("bo", "bor", "bodde", "bo", "bott"),
    ("arbeta", "arbetar", "arbetade", "arbeta", "arbetat"),
    ("stanna", "stannar", "stannade", "stanna", "stannat"),
    ("vänta", "väntar", "väntade", "vänta", "väntat"),
]
_SAYING = [
    ("säga", "säger", "sa", "säga", "sagt"),
    ("tro", "tror", "trodde", "tro", "trott"),
    ("tycka", "tycker", "tyckte", "tycka", "tyckt"),
    ("märka", "märker", "märkte", "märka", "märkt"),
]
# lemma, present, past
_MODALS = [
    ("kunna", "kan", "kunde"),
    ("vilja", "vill", "ville"),
    ("skola", "ska", "skulle"),
    ("böra", "bör", "borde"),
]
_WEATHER = [("regna", "regnar", "regnade"), ("snöa", "snöar", "snöade")]
# form, lemma, feats (subject case, object case)
_PERSONAL = [
    ("jag", "jag", "mig", "UTR|SIN|DEF"),
    ("du", "du", "dig", "UTR|SIN|DEF"),
    ("han", "han", "honom", "UTR|SIN|DEF"),
    ("hon", "hon", "henne", "UTR|SIN|DEF"),
    ("vi", "vi", "oss", "UTR/NEU|PLU|DEF"),
    ("de", "de", "dem", "UTR/NEU|PLU|DEF"),
]
# plain adverbs: form, deprel
_ADVERBS = [
    ("inte", "NA"), ("ofta", "TA"), ("alltid", "TA"), ("aldrig", "NA"),
    ("redan", "TA"), ("snart", "TA"), ("nog", "MA"), ("kanske", "MA"),
    ("mycket", "AA"), ("gärna", "MA"),
]
_CONJ_ADVERBIALS = ["dock", "ändå", "också", "alltså"]
_PLACE_PREPS = ["i", "på", "vid", "under", "från", "till", "mot"]
_TIME_PREPS = ["efter", "före", "under"]
_NOUN_PREPS = ["om", "från", "med", "för", "i", "på"]
_SUBJUNCTIONS = ["när", "eftersom", "medan", "då", "om"]
_ANAPHORIC_ADVERBS = [("där", "RA"), ("dit", "RA"), ("då", "TA"), ("därifrån", "RA"), ("härifrån", "RA")]
_ANSWERS = ["ja", "nej", "jo", "javisst"]
_SENTENCE_CONJ = ["men", "och", "eller"]


@dataclass
class Node:
    form: str
    lemma: str
    pos: str
    feats: str
    deprel: str
    left: list["Node"] = field(default_factory=list)
    right: list["Node"] = field(default_factory=list)


def _linearize(root: Node) -> list[tuple[Node, Optional[Node]]]:
    out: list[tuple[Node, Optional[Node]]] = []

    def walk(node: Node, head: Optional[Node]) -> None:
        for child in node.left:
            walk(child, node)
        out.append((node, head))
        for child in node.right:
            walk(child, node)

    walk(root, None)
    return out


class _TreeGrower:
    """Grows one sentence tree; every choice comes from ``rng``."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nouns: list[Node] = []  # common-noun heads, targets for expansion
        self.clauses: list[Node] = []  # clause heads, targets for adverbials
        self.args: list[Node] = []  # subject and object NP heads

    def np(self, deprel: str, allow_pronoun: bool = True) -> Node:
        rng = self.rng
        r = rng.random()
        if allow_pronoun and r < 0.18:
            form, lemma, obj_form, feats = rng.choice(_PERSONAL)
            if deprel == "SS":
                node = Node(form, lemma, "PN", feats + "|SUB", deprel)
            else:
                node = Node(obj_form, lemma, "PN", feats + "|OBJ", deprel)
            self.args.append(node)
            return node
        if r < 0.26:
            name = rng.choice(_PROPER)
            node = Node(name, name, "PM", "NOM", deprel)
            self.args.append(node)
            return node
        lemma, gender, si, sd, pi, pd = rng.choice(_NOUNS)
        plural = rng.random() < 0.3
        definite = rng.random() < 0.55
        form = (pd if definite else pi) if plural else (sd if definite else si)
        number = "PLU" if plural else "SIN"
        node = Node(form, lemma, "NN", f"{gender}|{number}|{'DEF' if definite else 'IND'}|NOM", deprel)
        adjective = rng.random() < 0.35
        if adjective:
            alemma, common, neuter, weak = rng.choice(_ADJECTIVES)
            if definite or plural:
                aform, afeats = weak, "POS|UTR/NEU|SIN/PLU|DEF|NOM" if definite else "POS|UTR/NEU|PLU|IND|NOM"
            else:
                aform = neuter if gender == "NEU" else common
                afeats = f"POS|{gender}|SIN|IND|NOM"
            node.left.append(Node(aform, alemma, "JJ", afeats, "AT"))
        if definite and adjective:
            # "den gamla boken", "det nya huset", "de stora städerna"
            det = "de" if plural else ("det" if gender == "NEU" else "den")
            dfeats = "UTR/NEU|PLU|DEF" if plural else f"{gender}|SIN|DEF"
            if rng.random() < 0.25 and not plural:
                # "den där boken": anaphoric-looking adverb bound by a determiner
                node.left.insert(0, Node("där", "där", "AB", "", "DT"))
            if rng.random() < 0.2:
                det = {"de": "dessa", "det": "detta", "den": "denna"}[det]
                node.left.insert(0, Node(det, "denna", "DT", dfeats, "DT"))
            else:
                node.left.insert(0, Node(det, "den", "DT", dfeats, "DT"))
        elif not definite and not plural and rng.random() < 0.6:
            det = "ett" if gender == "NEU" else "en"
            node.left.insert(0, Node(det, "en", "DT", f"{gender}|SIN|IND", "DT"))
        elif not definite and plural and rng.random() < 0.3:
            number = rng.choice(["tre", "två", "många"])
            node.left.insert(0, Node(number, number, "RG", "NOM", "DT"))
        if rng.random() < 0.08:
            # genitive attribute: "landets regering"
            glemma, ggender, gsi, gsd, gpi, gpd = rng.choice(_NOUNS)
            gplural = rng.random() < 0.3
            gform = gpd if gplural else gsd
            gform += "" if gform.endswith("s") else "s"
            gfeats = f"{ggender}|{'PLU' if gplural else 'SIN'}|DEF|GEN"
            node.left.insert(0, Node(gform, glemma, "NN", gfeats, "DT"))
        elif definite and not adjective and rng.random() < 0.1:
            node.left.insert(0, Node(*rng.choice(_GRADED), "AT"))
        self.nouns.append(node)
        self.args.append(node)
        return node

    def pp(self, deprel: str, prep: str) -> Node:
        node = Node(prep, prep, "PP", "", deprel)
        node.right.append(self.np("PA", allow_pronoun=False))
        return node

    def verb_group(self, saying: bool = False):
        """Finite verb group: (clause head, lexical verb, is-transitive)."""
        rng = self.rng
        if saying:
            entry, transitive = rng.choice(_SAYING), False
        else:
            transitive = rng.random() < 0.6
            entry = rng.choice(_TRANSITIVE if transitive else _INTRANSITIVE)
        lemma, pres, past, inf, sup = entry
        r = rng.random()
        if not transitive and r < 0.06:
            form, lemma, feats = rng.choice(_PASSIVE)
            head = lexical = Node(form, lemma, "VB", feats, "")
        elif r < 0.2:
            mlemma, mpres, mpast = rng.choice(_MODALS)
            tense = rng.random() < 0.5
            head = Node(mpres if tense else mpast, mlemma, "VB", "PRS|AKT" if tense else "PRT|AKT", "")
            lexical = Node(inf, lemma, "VB", "INF|AKT", "VG")
            head.right.append(lexical)
        elif r < 0.35:
            tense = rng.random() < 0.5
            head = Node("har" if tense else "hade", "ha", "VB", "PRS|AKT" if tense else "PRT|AKT", "")
            lexical = Node(sup, lemma, "VB", "SUP|AKT", "VG")
            head.right.append(lexical)
        else:
            tense = rng.random() < 0.5
            head = lexical = Node(pres if tense else past, lemma, "VB", "PRS|AKT" if tense else "PRT|AKT", "")
        return head, lexical, transitive

    def clause(self, deprel: str, order: str, subject: bool = True) -> Node:
        """A finite clause headed by its finite verb.

        ``order`` is "main" (subject first, or fronted adverbial then verb
        then subject) or "sub" (subject, verb).
        """
        rng = self.rng
        head, lexical, transitive = self.verb_group()
        head.deprel = deprel
        self.clauses.append(head)
        if subject:
            subj = self.np("SS")
            if order == "main" and rng.random() < 0.3:
                if rng.random() < 0.5:
                    fronted = self.pp("TA", rng.choice(_TIME_PREPS))
                else:
                    form, rel = rng.choice(_ADVERBS[1:6])
                    fronted = Node(form, form, "AB", "", rel)
                head.left.append(fronted)
                head.right.insert(0, subj)
            else:
                head.left.append(subj)
        if rng.random() < 0.35:
            form, rel = rng.choice(_ADVERBS)
            head.right.insert(1 if head.right and head.right[0].deprel == "SS" else 0, Node(form, form, "AB", "", rel))
        if transitive:
            lexical.right.append(self.np("OO"))
        if rng.random() < 0.4:
            lexical.right.append(self.pp("RA", rng.choice(_PLACE_PREPS)))
        return head

    # -- growth steps; each picks where to attach among what exists --

    def add_relative(self) -> None:
        candidates = [n for n in self.nouns if not any(c.deprel == "ET" and c.pos == "VB" for c in n.right)]
        if candidates:
            noun = self.rng.choice(candidates)
            rel = self.clause("ET", "sub", subject=False)
            rel.left.insert(0, Node("som", "som", "HP", "-|-|-", "SS"))
            noun.right.append(rel)

    def add_noun_pp(self) -> None:
        candidates = [n for n in self.nouns if len(n.right) < 2]
        if candidates:
            noun = self.rng.choice(candidates)
            noun.right.append(self.pp("ET", self.rng.choice(_NOUN_PREPS)))

    def add_place(self) -> None:
        clause = self.rng.choice(self.clauses)
        clause.right.append(self.pp("RA", self.rng.choice(_PLACE_PREPS)))

    def add_specified_where(self) -> None:
        # "där i staden": the adverb's own adverbial dependent specifies it
        clause = self.rng.choice(self.clauses)
        where = Node("där", "där", "AB", "", "RA")
        where.right.append(self.pp("RA", self.rng.choice(["i", "på", "vid"])))
        clause.right.append(where)

    def add_subordinate(self) -> None:
        rng = self.rng
        clause = rng.choice(self.clauses)
        sub = self.clause("AA", "sub")
        sn = rng.choice(_SUBJUNCTIONS)
        sub.left.insert(0, Node(sn, sn, "SN", "", "UK"))
        clause.right.append(Node(",", ",", "MID", "", "IK"))
        clause.right.append(sub)

    def add_that_clause(self) -> None:
        # "... , och han sa att ..." style object clause under a saying verb
        rng = self.rng
        clause = rng.choice(self.clauses)
        say, _, _ = self.verb_group(saying=True)
        say.deprel = "CJ"
        say.left.append(self.np("SS"))
        self.clauses.append(say)
        sub = self.clause("OO", "sub")
        sub.left.insert(0, Node("att", "att", "SN", "", "UK"))
        say.right.append(sub)
        conj = Node("och", "och", "KN", "", "++")
        conj.right.append(say)
        clause.right.append(Node(",", ",", "MID", "", "IK"))
        clause.right.append(conj)

    def add_coordinated(self) -> None:
        rng = self.rng
        clause = rng.choice(self.clauses)
        if rng.random() < 0.15:
            # "och det regnade": det under a weather verb is not anaphoric
            lemma, pres, past = rng.choice(_WEATHER)
            present = rng.random() < 0.5
            second = Node(pres if present else past, lemma, "VB", "PRS|AKT" if present else "PRT|AKT", "CJ")
            second.left.append(Node("det", "det", "PN", "NEU|SIN|DEF|SUB", "SS"))
        else:
            second = self.clause("CJ", "sub")
            if rng.random() < 0.3:
                word = rng.choice(_CONJ_ADVERBIALS)
                second.right.insert(0, Node(word, word, "AB", "", "+A"))
        conj_word = rng.choice(["och", "men"])
        conj = Node(conj_word, conj_word, "KN", "", "++")
        conj.right.append(second)
        clause.right.append(conj)

    def add_adverb(self) -> None:
        clause = self.rng.choice(self.clauses)
        form, rel = self.rng.choice(_ADVERBS)
        clause.right.append(Node(form, form, "AB", "", rel))

    def add_infinitive(self) -> None:
        # "för att läsa boken": non-finite, keeps single-clause sentences single
        clause = self.rng.choice(self.clauses)
        lemma, _, _, inf, _ = self.rng.choice(_TRANSITIVE)
        verb = Node(inf, lemma, "VB", "INF|AKT", "AA")
        verb.left.append(Node("för", "för", "PP", "", "PL"))
        verb.left.append(Node("att", "att", "IE", "", "IM"))
        verb.right.append(self.np("OO", allow_pronoun=False))
        clause.right.append(verb)

    def add_unmapped(self) -> None:
        # a deprel the bundled profile does not map, as real corpora have
        self.rng.choice(self.clauses).right.append(Node("typ", "typ", "AB", "", "XA"))


def _long_sentence(rng: random.Random, sid: str) -> GenSentence:
    """One 15-60-token tree and the themes planted in it."""
    while True:
        sentence = _try_long_sentence(rng, sid)
        if sentence is not None:
            return sentence


def _try_long_sentence(rng: random.Random, sid: str) -> Optional[GenSentence]:
    b = _TreeGrower(rng)
    # Multi-clause sentences carry at least two finite verbs, which keeps
    # their conjunctional adverbials and initial conjunctions from firing;
    # single-clause ones can host the themes that need a lone clause.
    multi = rng.random() < 0.8
    target = rng.randint(15, 60) if multi else rng.randint(15, 30)
    exclusive = None if multi else rng.choice([None, ADV2, STRUCT, IMP])
    planted: set[str] = set()

    if multi and rng.random() < 0.08:
        # "Det är viktigt att ...": expletive det, logical-subject clause
        root = Node("är", "vara", "VB", "PRS|AKT", "ROOT")
        root.left.append(Node("det", "det", "PN", "NEU|SIN|DEF|SUB", "FS"))
        root.right.append(Node("viktigt", "viktig", "JJ", "POS|NEU|SIN|IND|NOM", "SP"))
        sub = b.clause("ES", "sub")
        sub.left.insert(0, Node("att", "att", "SN", "", "UK"))
        root.right.append(sub)
        b.clauses.append(root)
    else:
        root = b.clause("ROOT", "main", subject=exclusive != IMP)
        if multi:
            rng.choice([b.add_subordinate, b.add_relative, b.add_coordinated, b.add_that_clause])()

    # Plant themes before growing, so growth never lands between a planted
    # token and the neighbours its rule looks at.
    pronoun = None
    if exclusive != IMP and rng.random() < 0.25:
        victims = [a for a in b.args if a.deprel in ("SS", "OO") and not a.right]
        if victims:
            pronoun = rng.choice(victims)
            form = rng.choice(["den", "det"])
            case = "SUB" if pronoun.deprel == "SS" else "OBJ"
            gender = "NEU" if form == "det" else "UTR"
            pronoun.form = pronoun.lemma = form
            pronoun.pos, pronoun.feats = "PN", f"{gender}|SIN|DEF|{case}"
            pronoun.left = []
            b.nouns = [n for n in b.nouns if n is not pronoun]
            planted.add(PN)
    if rng.random() < 0.2:
        form, rel = rng.choice(_ANAPHORIC_ADVERBS)
        rng.choice(b.clauses).right.insert(0, Node(form, form, "AB", "", rel))
        planted.add(ADV1)
    if exclusive == ADV2:
        word = rng.choice(["dock", "ändå", "alltså"])
        root.right.insert(0, Node(word, word, "AB", "", "+A"))
        planted.add(ADV2)
    elif exclusive == STRUCT:
        word = rng.choice(_SENTENCE_CONJ)
        root.left.insert(0, Node(word, word, "KN", "", "++"))
        planted.add(STRUCT)
    elif exclusive == IMP:
        planted.add(IMP)
    if exclusive != STRUCT and rng.random() < 0.05:
        word = rng.choice(_ANSWERS)
        root.left[0:0] = [Node(word, word, "IN", "", "AA"), Node(",", ",", "MID", "", "IK")]
        planted.add(CEQ)

    growth = [b.add_noun_pp, b.add_place, b.add_adverb, b.add_infinitive]
    if multi:
        growth += [b.add_relative, b.add_subordinate, b.add_coordinated, b.add_specified_where]
    for _ in range(200):
        if len(_linearize(root)) + 1 >= target:
            break
        if rng.random() < 0.01:
            b.add_unmapped()
        else:
            rng.choice(growth)()

    defect = rng.choice(["lowercase", "open"]) if rng.random() < 0.07 else None
    if defect != "open":
        root.right.append(Node(".", ".", "MAD", "", "IP"))
    if defect:
        planted.add(INCOMP)
    ordered = _linearize(root)
    if not 15 <= len(ordered) <= 60:
        return None
    position = {id(node): i for i, (node, _) in enumerate(ordered, start=1)}
    if pronoun is not None:
        following = position[id(pronoun)]
        if following < len(ordered) and ordered[following][0].lemma == "som":
            return None  # a som-relative right after it would exempt the pronoun
    rows = []
    for node, head in ordered:
        rows.append(
            (node.form, node.lemma, node.pos, node.feats, position[id(head)] if head else 0, node.deprel)
        )
    first = rows[0][0]
    first = first[0].lower() + first[1:] if defect == "lowercase" else first[0].upper() + first[1:]
    rows[0] = (first,) + rows[0][1:]
    return GenSentence(sid, rows, frozenset(planted))


def long_corpus(seed: int, count: int, prefix: str = "L") -> list[GenSentence]:
    rng = random.Random(f"long-{seed}")
    return [_long_sentence(rng, f"{prefix}{i:06d}") for i in range(1, count + 1)]


# --------------------------------------------------------------------------
# short single-theme sentences (mini-format rows: form lemma pos feats head deprel)

_CLEAN = [
    ("Flickan flicka NN UTR|SIN|DEF", "målar måla", "huset hus NN NEU|SIN|DEF"),
    ("Pojken pojke NN UTR|SIN|DEF", "läser läsa", "boken bok NN UTR|SIN|DEF"),
    ("Läraren lärare NN UTR|SIN|DEF", "öppnar öppna", "dörren dörr NN UTR|SIN|DEF"),
    ("Hunden hund NN UTR|SIN|DEF", "jagar jaga", "katten katt NN UTR|SIN|DEF"),
    ("Mannen man NN UTR|SIN|DEF", "bygger bygga", "muren mur NN UTR|SIN|DEF"),
    ("Kvinnan kvinna NN UTR|SIN|DEF", "sjunger sjunga", "visan visa NN UTR|SIN|DEF"),
    ("Barnet barn NN NEU|SIN|DEF", "ritar rita", "bilden bild NN UTR|SIN|DEF"),
    ("Bonden bonde NN UTR|SIN|DEF", "plöjer plöja", "åkern åker NN UTR|SIN|DEF"),
]


def _transitive(subj: str, verb: str, obj: str, final: bool = True) -> list[str]:
    rows = [f"{subj} 2 SS", f"{verb} VB PRS|AKT 0 ROOT", f"{obj} 2 OO"]
    if final:
        rows.append(". . MAD _ 2 IP")
    return rows


def _short_groups() -> list[tuple[Optional[str], list[list[str]]]]:
    clean = [_transitive(s, v, o) for s, v, o in _CLEAN]
    incomplete = [_transitive(s[0].lower() + s[1:], v, o) for s, v, o in _CLEAN[:4]]
    incomplete += [_transitive(s, v, o, final=False) for s, v, o in _CLEAN[4:]]

    implicit = [
        [f"{prep} PP _ 3 TA", f"{noun} 1 PA", f"{modal} 0 ROOT", f"{pron} 3 SS", ". . MAD _ 3 IP"]
        for prep, noun, modal, pron in [
            ("Till till", "jul jul NN UTR|SIN|IND", "skulle skola VB PRT|AKT", "hon hon PN UTR|SIN|DEF"),
            ("Till till", "påsk påsk NN UTR|SIN|IND", "ville vilja VB PRT|AKT", "han han PN UTR|SIN|DEF"),
            ("I i", "sommar sommar NN UTR|SIN|IND", "måste måste VB PRS|AKT", "de de PN UTR/NEU|PLU|DEF"),
            ("Efter efter", "festen fest NN UTR|SIN|DEF", "borde böra VB PRT|AKT", "vi vi PN UTR/NEU|PLU|DEF"),
        ]
    ]
    implicit += [
        [f"{verb} 0 ROOT", f"{adv} AB _ 1 NA", ". . MAD _ 1 IP"]
        for verb, adv in zip(
            ["Sover sova VB PRS|AKT", "Kommer komma VB PRS|AKT", "Läser läsa VB PRS|AKT", "Sjunger sjunga VB PRS|AKT"],
            ["inte inte", "snart snart", "aldrig aldrig", "ofta ofta"],
        )
    ]

    pronoun = [
        ["Nu nu AB _ 2 TA", "sitter sitta VB PRS|AKT 0 ROOT", "den den PN UTR|SIN|DEF 2 SS",
         "i i PP _ 2 RA", "taket tak NN NEU|SIN|DEF 4 PA", ". . MAD _ 2 IP"],
        ["Sedan sedan AB _ 2 TA", "köpte köpa VB PRT|AKT 0 ROOT", "hon hon PN UTR|SIN|DEF 2 SS",
         "den den PN UTR|SIN|DEF 2 OO", ". . MAD _ 2 IP"],
        ["Nu nu AB _ 2 TA", "ligger ligga VB PRS|AKT 0 ROOT", "det det PN NEU|SIN|DEF 2 SS",
         "på på PP _ 2 RA", "golvet golv NN NEU|SIN|DEF 4 PA", ". . MAD _ 2 IP"],
        ["Sedan sedan AB _ 2 TA", "målade måla VB PRT|AKT 0 ROOT", "han han PN UTR|SIN|DEF 2 SS",
         "det det PN NEU|SIN|DEF 2 OO", ". . MAD _ 2 IP"],
    ]
    pronoun += [
        [f"{subj} 2 SS", f"{verb} VB PRT|AKT 0 ROOT", f"{prep} PP _ 2 RA", f"{obl} 3 PA",
         "och och KN _ 2 ++", f"{pron} 7 SS", f"{verb2} VB PRT|AKT 5 CJ", ". . MAD _ 2 IP"]
        for subj, verb, prep, obl, pron, verb2 in [
            ("Stolen stol NN UTR|SIN|DEF", "stod stå", "vid vid", "väggen vägg NN UTR|SIN|DEF",
             "den den PN UTR|SIN|DEF", "föll falla"),
            ("Bordet bord NN NEU|SIN|DEF", "stod stå", "vid vid", "fönstret fönster NN NEU|SIN|DEF",
             "det det PN NEU|SIN|DEF", "försvann försvinna"),
            ("Hunden hund NN UTR|SIN|DEF", "jagade jaga", "mot mot", "katten katt NN UTR|SIN|DEF",
             "den den PN UTR|SIN|DEF", "sprang springa"),
            ("Kvinnan kvinna NN UTR|SIN|DEF", "gick gå", "mot mot", "dörren dörr NN UTR|SIN|DEF",
             "den den PN UTR|SIN|DEF", "gnisslade gnissla"),
        ]
    ]

    adverb = [
        ["Då då AB _ 2 TA", "ska skola VB PRS|AKT 0 ROOT", "folk folk NN NEU|SIN|IND 2 SS",
         "kunna kunna VB INF|AKT 2 VG", "lämna lämna VB INF|AKT 4 VG",
         "området område NN NEU|SIN|DEF 5 OO", ". . MAD _ 2 IP"],
        ["Där där AB _ 2 RA", "bodde bo VB PRT|AKT 0 ROOT", "hon hon PN UTR|SIN|DEF 2 SS", ". . MAD _ 2 IP"],
        ["Hon hon PN UTR|SIN|DEF 2 SS", "bodde bo VB PRT|AKT 0 ROOT", "där där AB _ 2 RA", ". . MAD _ 2 IP"],
        ["Dit dit AB _ 2 TA", "flyttade flytta VB PRT|AKT 0 ROOT", "familjen familj NN UTR|SIN|DEF 2 SS",
         ". . MAD _ 2 IP"],
        ["Då då AB _ 2 TA", "sov sova VB PRT|AKT 0 ROOT", "barnet barn NN NEU|SIN|DEF 2 SS", ". . MAD _ 2 IP"],
        ["Härifrån härifrån AB _ 2 RA", "såg se VB PRT|AKT 0 ROOT", "mannen man NN UTR|SIN|DEF 2 SS",
         "huset hus NN NEU|SIN|DEF 2 OO", ". . MAD _ 2 IP"],
        ["Därifrån därifrån AB _ 2 RA", "kom komma VB PRT|AKT 0 ROOT", "kvinnan kvinna NN UTR|SIN|DEF 2 SS",
         ". . MAD _ 2 IP"],
        ["Då då AB _ 2 TA", "läste läsa VB PRT|AKT 0 ROOT", "pojken pojke NN UTR|SIN|DEF 2 SS",
         "boken bok NN UTR|SIN|DEF 2 OO", ". . MAD _ 2 IP"],
    ]

    connective_adverb = [
        [f"{subj} 2 SS", f"{verb} VB PRS|AKT 0 ROOT", "inte inte AB _ 2 NA", f"{adv} AB _ 2 +A", ". . MAD _ 2 IP"]
        for subj, verb, adv in [
            ("Pojken pojke NN UTR|SIN|DEF", "sover sova", "heller heller"),
            ("Flickan flicka NN UTR|SIN|DEF", "läser läsa", "heller heller"),
            ("Hunden hund NN UTR|SIN|DEF", "springer springa", "dock dock"),
            ("Mannen man NN UTR|SIN|DEF", "sjunger sjunga", "ändå ändå"),
            ("Kvinnan kvinna NN UTR|SIN|DEF", "ritar rita", "dock dock"),
            ("Barnet barn NN NEU|SIN|DEF", "kommer komma", "heller heller"),
            ("Läraren lärare NN UTR|SIN|DEF", "skriver skriva", "ändå ändå"),
            ("Katten katt NN UTR|SIN|DEF", "sover sova", "heller heller"),
        ]
    ]

    connective = [
        [f"{c} KN _ 3 ++", f"{subj[0].lower()}{subj[1:]} 3 SS", f"{verb} VB PRS|AKT 0 ROOT",
         f"{obj} 3 OO", ". . MAD _ 3 IP"]
        for (subj, verb, obj), c in zip(
            _CLEAN[:7], ["Men men", "Och och", "Eller eller", "Men men", "Och och", "Men men", "Och och"]
        )
    ]
    connective.append(
        ["Men men KN _ 3 ++", "katten katt NN UTR|SIN|DEF 3 SS", "sover sova VB PRS|AKT 0 ROOT", ". . MAD _ 3 IP"]
    )

    answer = [
        ["Ja ja IN _ 4 AA", ", , MID _ 4 IK", "hon hon PN UTR|SIN|DEF 4 SS",
         "kommer komma VB PRS|AKT 0 ROOT", ". . MAD _ 4 IP"],
        ["Nej nej IN _ 4 AA", ", , MID _ 4 IK", "flickan flicka NN UTR|SIN|DEF 4 SS",
         "sover sova VB PRS|AKT 0 ROOT", ". . MAD _ 4 IP"],
        ["– – MID _ 5 IK", "Jo jo IN _ 5 AA", ", , MID _ 5 IK", "pojken pojke NN UTR|SIN|DEF 5 SS",
         "läser läsa VB PRS|AKT 0 ROOT", ". . MAD _ 5 IP"],
        ["– – MID _ 5 IK", "Javisst javisst IN _ 5 AA", ", , MID _ 5 IK", "hon hon PN UTR|SIN|DEF 5 SS",
         "sjunger sjunga VB PRS|AKT 0 ROOT", ". . MAD _ 5 IP"],
        ["– – MID _ 4 IK", "Gärna gärna AB _ 4 MA", ", , MID _ 4 IK", "sa säga VB PRT|AKT 0 ROOT",
         "hon hon PN UTR|SIN|DEF 4 SS", ". . MAD _ 4 IP"],
        ["– – MID _ 4 IK", "Kanske kanske AB _ 4 MA", ", , MID _ 4 IK", "sa säga VB PRT|AKT 0 ROOT",
         "mannen man NN UTR|SIN|DEF 4 SS", ". . MAD _ 4 IP"],
        ["Jodå jodå IN _ 4 AA", ", , MID _ 4 IK", "barnet barn NN NEU|SIN|DEF 4 SS",
         "sover sova VB PRS|AKT 0 ROOT", ". . MAD _ 4 IP"],
        ["Nejdå nejdå IN _ 4 AA", ", , MID _ 4 IK", "katten katt NN UTR|SIN|DEF 4 SS",
         "sover sova VB PRS|AKT 0 ROOT", ". . MAD _ 4 IP"],
    ]
    return [
        (None, clean),
        (INCOMP, incomplete),
        (IMP, implicit),
        (PN, pronoun),
        (ADV1, adverb),
        (ADV2, connective_adverb),
        (STRUCT, connective),
        (CEQ, answer),
    ]


def _mini_rows(lines: list[str]) -> list[tuple[str, str, str, str, int, str]]:
    rows = []
    for line in lines:
        form, lemma, pos, feats, head, deprel = line.split()
        rows.append((form, lemma, pos, "" if feats == "_" else feats, int(head), deprel))
    return rows


def short_corpus(seed: int, count: int) -> list[GenSentence]:
    """``count`` sentences drawn with replacement from the single-theme table."""
    rng = random.Random(f"short-{seed}")
    table = [
        (theme, _mini_rows(lines)) for theme, group in _short_groups() for lines in group
    ]
    out = []
    for i in range(1, count + 1):
        theme, rows = rng.choice(table)
        out.append(GenSentence(f"S{i:06d}", rows, frozenset({theme}) if theme else frozenset()))
    return out


# --------------------------------------------------------------------------
# Korp-style concordance pages

KORP_CORPUS = "BENCH"


@dataclass
class KorpData:
    """Served pages plus what the client should make of them."""

    pages: dict[int, bytes]  # page start -> response body
    page_size: int
    expected: list[GenSentence]  # the valid hits, ids corpus:position
    dropped: list[str]  # ids of hits with cyclic heads


def korp_pages(seed: int, hits: int, page_size: int, bad_every: int = 100) -> KorpData:
    rng = random.Random(f"korp-{seed}")
    sentences = long_corpus(seed, hits, prefix="K")
    position = rng.randrange(1000, 100000)
    items = []
    expected, dropped = [], []
    for n, s in enumerate(sentences):
        sid = f"{KORP_CORPUS}:{position}"
        rows = list(s.rows)
        if n % bad_every == bad_every // 2:
            # heads 1 -> 2 -> 1: not a tree, the client drops the hit
            rows[0] = rows[0][:4] + (2,) + rows[0][5:]
            rows[1] = rows[1][:4] + (1,) + rows[1][5:]
            dropped.append(sid)
        else:
            expected.append(GenSentence(sid, rows, s.themes))
        items.append(
            {
                "corpus": KORP_CORPUS,
                "match": {"position": str(position), "start": 0, "end": 1},
                "structs": {"text_title": "bench"},
                "tokens": [
                    {
                        "word": form,
                        "lemma": lemma or "_",
                        "pos": pos,
                        "msd": feats,
                        "ref": str(i),
                        "dephead": str(head),
                        "deprel": deprel,
                    }
                    for i, (form, lemma, pos, feats, head, deprel) in enumerate(rows, start=1)
                ],
            }
        )
        position += len(rows) + rng.randrange(1, 500)
    pages = {}
    for start in range(0, len(items), page_size):
        body = {"hits": len(items), "kwic": items[start : start + page_size]}
        pages[start] = json.dumps(body, ensure_ascii=False).encode("utf-8")
    return KorpData(pages=pages, page_size=page_size, expected=expected, dropped=dropped)


# --------------------------------------------------------------------------
# input properties, recorded next to every baseline


def properties(sentences: list[GenSentence]) -> dict:
    lengths = [len(s) for s in sentences]
    depth = 0
    pairs = set()
    for s in sentences:
        for form, lemma, pos, feats, head, deprel in s.rows:
            pairs.add((pos, feats))
        for i in range(1, len(s) + 1):
            d, current = 0, i
            while current:
                d += 1
                current = s.rows[current - 1][4]
            depth = max(depth, d)
    mix = {theme: sum(1 for s in sentences if theme in s.themes) for theme in THEMES}
    mix["none"] = sum(1 for s in sentences if not s.themes)
    return {
        "sentences": len(sentences),
        "tokens": sum(lengths),
        "mean_length": round(sum(lengths) / len(lengths), 2) if lengths else 0,
        "max_length": max(lengths, default=0),
        "max_depth": depth,
        "distinct_pos_feats": len(pairs),
        "theme_mix": mix,
    }
